package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// Every arm's period is one step, then the probe on the snapshot that step
// returned. On a comparison arm, run closes the EPR window once and hands the
// same snapshot to the manager, then to the probe, at the same instant; on an
// EPL arm, the probe gets the window the EMR's Tick closed, at the manager's
// defaulted period, numbered with the manager's own tick count.
func TestRunHandsBaselineAndProbeOneWindow(t *testing.T) {
	type call struct {
		who  string
		tick int
		snap *epl.Snapshot
		at   sim.Time // when the call was made
	}
	for _, tc := range []struct {
		name   string
		period sim.Duration // the period the arm must step at
		// arm adds the manager; a comparison manager logs its calls with add.
		arm func(sc *scenario, add func(call))
		who []string // each period's calls, in order
	}{
		{"baseline", sim.Second, func(sc *scenario, add func(call)) {
			sc.emr = emr.Config{Period: sim.Second}
			sc.baseline = func(w *core.World) func(*epl.Snapshot) {
				return func(snap *epl.Snapshot) { add(call{"manager", 0, snap, w.K.Now()}) }
			}
		}, []string{"manager", "probe"}},
		{"policy", 60 * sim.Second, func(sc *scenario, _ func(call)) {
			sc.policy = `true => pin(Big(b));`
		}, []string{"probe"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls []call
			add := func(c call) { calls = append(calls, c) }
			sc := scenario{
				machines: 2,
				inst:     cluster.M1Small,
				build:    func(*core.World) {},
				probe: func(w *core.World, tick int, snap *epl.Snapshot) {
					if w.M != nil && tick != w.M.Stats.Ticks {
						t.Errorf("probe tick %d, manager at tick %d", tick, w.M.Stats.Ticks)
					}
					add(call{"probe", tick, snap, w.K.Now()})
				},
				horizon: 5 * tc.period,
			}
			tc.arm(&sc, add)
			run(Config{}, 1, sc)

			per := len(tc.who)
			if len(calls) != 5*per {
				t.Fatalf("%d calls over 5 periods, want %v in each: %+v", len(calls), tc.who, calls)
			}
			for p := 1; p <= 5; p++ {
				got := calls[(p-1)*per : p*per]
				for i, c := range got {
					if c.who != tc.who[i] {
						t.Fatalf("period %d called %s at position %d, want %v", p, c.who, i, tc.who)
					}
					if c.snap != got[0].snap || c.at != got[0].at {
						t.Errorf("period %d: %s saw %p (at %v), %s %p (at %v)",
							p, c.who, c.snap, c.at, got[0].who, got[0].snap, got[0].at)
					}
				}
				last := got[per-1]
				if last.tick != p {
					t.Errorf("probe tick %d, want %d", last.tick, p)
				}
				if want := sim.Time(p) * sim.Time(tc.period); last.at != want {
					t.Errorf("period %d: window closed at %v, want at %v", p, last.at, want)
				}
			}
		})
	}
}

// A fault planted mid-run reaches the run's record from the sweep that
// follows it: a leaked memory byte and an actor homed on a failed machine in
// the period they happen, a migration held up behind other work at the first
// boundary where it has been in flight longer than its own no-contention
// cost plus two periods.
func TestRunSweepCatchesMutations(t *testing.T) {
	const at = 3 // the period whose probe plants the fault
	for _, tc := range []struct {
		name   string
		plant  func(w *core.World, big actor.Ref)
		period int
		want   string
	}{
		{"LeakedMemory", func(w *core.World, _ actor.Ref) { w.C.Machine(1).AddMem(1) },
			at, "machine 1 memory drift: accounted 1048577, actors hold 1048576"},
		{"HomedOnFailedMachine", func(w *core.World, _ actor.Ref) { w.C.Fail(2) },
			at, "1 actors homed on down machine 2"},
		// A minute of work on server 0's one core holds the 64 MB move at
		// serialize. Its idle cost is 2.788 s and the bound two 1 s periods,
		// so the move begun at period 3 passes at 7 (4 s old) and is caught
		// at 8.
		{"MigrationNeverCommits", func(w *core.World, big actor.Ref) {
			w.C.Machine(0).Exec(sim.Minute, func() {})
			w.RT.Migrate(big, 1, nil)
		}, at + 5, "a migration in flight for 5.000s, 2.212s past its 2.788s move (bound 2.000s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var big actor.Ref
			sized := func(bytes int64) actor.Behavior {
				return actor.BehaviorFunc(func(ctx *actor.Context, _ actor.Message) { ctx.SetMemSize(bytes) })
			}
			sc := scenario{
				machines: 3,
				inst:     cluster.M1Small,
				build: func(w *core.World) {
					cl := w.Client(0)
					for srv := cluster.MachineID(1); srv < 3; srv++ {
						cl.Send(w.RT.SpawnOn("Small", sized(1<<20), srv), "init", nil, 8)
					}
					big = w.RT.SpawnOn("Big", sized(64<<20), 0)
					cl.Send(big, "init", nil, 8)
				},
				wire: true,
				emr:  emr.Config{Period: sim.Second},
				probe: func(w *core.World, tick int, _ *epl.Snapshot) {
					if tick == at {
						tc.plant(w, big)
					}
				},
				horizon: 10 * sim.Second,
			}
			rec := &simTracker{}
			run(Config{stats: rec}, 1, sc)
			if len(rec.violations) == 0 {
				t.Fatal("no violation recorded")
			}
			if v := rec.violations[0].line; !strings.HasPrefix(v, fmt.Sprintf("period %d (", tc.period)) || !strings.HasSuffix(v, "): "+tc.want) {
				t.Fatalf("first violation %q, want period %d (…): %s", v, tc.period, tc.want)
			}
		})
	}
}

// The invariant clause lists the record's violations in period order, not
// string order (which puts "period 100" before "period 9"), whatever order
// the sweeps recorded them in.
func TestTrackerReportsInPeriodOrder(t *testing.T) {
	sweeps := experiment{id: "sweeps", claim: func(*Result) []Clause { return nil }, run: func(cfg Config, _ *Result) {
		w := core.NewWorld(1, 2, cluster.M1Small, nil)
		w.C.Machine(1).AddMem(1)
		for _, n := range []int{10, 9, 100} {
			cfg.stats.sweep(w, n, 0, sim.Second)
		}
	}}
	var want []string
	for _, n := range []int{9, 10, 100} {
		want = append(want, fmt.Sprintf("period %d (t = 0µs): machine 1 memory drift: accounted 1, actors hold 0", n))
	}
	inv := invariantClause(t, sweeps.exec(Config{}, &simTracker{}))
	if inv.Value != 3 || !slices.Equal(inv.Detail, want) {
		t.Fatalf("invariant clause %s lists\n%s\nwant\n%s", inv, strings.Join(inv.Detail, "\n"), strings.Join(want, "\n"))
	}
}

// Every arm of every quick id is swept after each period it steps and once at
// its end (1,771 periods over 87 arms at seed 1). It reads each id's shared
// untraced seed-1 run (seedOne), so it costs no run of its own.
func TestRunSweepsEveryPeriodAndArm(t *testing.T) {
	for _, e := range table {
		_, rec := runSeedOne(t, e.id)
		if rec.sweeps != rec.periods+rec.arms {
			t.Errorf("%s: %d sweeps over %d arms stepping %d periods, want %d", e.id, rec.sweeps, rec.arms, rec.periods, rec.periods+rec.arms)
		}
	}
}

// An arm's liveness finding reaches the record with its last sweep.
func TestRunRecordsStalledArm(t *testing.T) {
	sc := scenario{
		machines: 1,
		inst:     cluster.M1Small,
		build:    func(*core.World) {},
		emr:      emr.Config{Period: sim.Second},
		probe:    func(*core.World, int, *epl.Snapshot) {},
		horizon:  3*sim.Second + sim.Millisecond,
		stalled:  func(outcome) string { return "app stalled" },
	}
	rec := &simTracker{}
	run(Config{stats: rec}, 1, sc)
	if want := []violation{{3, "period 3 (t = 3.001s): app stalled"}}; !slices.Equal(rec.violations, want) {
		t.Fatalf("record holds %q, want %q", rec.violations, want)
	}
}
