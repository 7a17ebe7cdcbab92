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
// same snapshot to the manager, then to the probe; on an EPL arm, the probe
// gets the window the EMR's Tick closed, at the manager's defaulted period,
// numbered with the manager's own tick count.
func TestRunHandsBaselineAndProbeOneWindow(t *testing.T) {
	type call struct {
		who  string
		tick int
		snap *epl.Snapshot
		at   sim.Time
		win  sim.Duration
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
			sc.baseline = func(*core.World) func(*epl.Snapshot) {
				return func(snap *epl.Snapshot) { add(call{"manager", 0, snap, snap.At, snap.Window}) }
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
					add(call{"probe", tick, snap, snap.At, snap.Window})
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
					if c.snap != got[0].snap || c.at != got[0].at || c.win != got[0].win {
						t.Errorf("period %d: %s saw %p (at %v, window %v), %s %p (at %v, window %v)",
							p, c.who, c.snap, c.at, c.win, got[0].who, got[0].snap, got[0].at, got[0].win)
					}
				}
				last := got[per-1]
				if last.tick != p {
					t.Errorf("probe tick %d, want %d", last.tick, p)
				}
				if want := sim.Time(p) * sim.Time(tc.period); last.at != want || last.win != tc.period {
					t.Errorf("period %d: window closed at %v after %v, want at %v after %v",
						p, last.at, last.win, want, tc.period)
				}
			}
		})
	}
}

// A fault planted mid-run reaches the run's record from the sweep that
// follows it: a leaked memory byte and an actor homed on a failed machine in
// the period they happen, a migration that never commits at the first
// boundary where it has been in flight longer than two periods.
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
		// Serializing 4 GB takes 20 s; the bound is two 1 s periods, so the
		// migration begun at period 3 is 2 s old at period 5 and caught at 6.
		{"MigrationNeverCommits", func(w *core.World, big actor.Ref) { w.RT.Migrate(big, 1, nil) },
			at + 3, "a migration in flight for 3.000s (bound 2.000s)"},
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
					big = w.RT.SpawnOn("Big", sized(4<<30), 0)
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
			if v := rec.violations[0]; !strings.HasPrefix(v, fmt.Sprintf("period %d (", tc.period)) || !strings.HasSuffix(v, "): "+tc.want) {
				t.Fatalf("first violation %q, want period %d (…): %s", v, tc.period, tc.want)
			}
		})
	}
}

// Every arm of every quick id is swept after each period it steps and once at
// its end (1,771 periods over 87 arms at seed 1). It reads each id's shared
// untraced seed-1 run (seedOne), so it costs no run of its own.
func TestRunSweepsEveryPeriodAndArm(t *testing.T) {
	for _, e := range table {
		_, rec := runSeedOne(t, e.id)
		if arms := len(rec.kernels); rec.sweeps != rec.periods+arms {
			t.Errorf("%s: %d sweeps over %d arms stepping %d periods, want %d", e.id, rec.sweeps, arms, rec.periods, rec.periods+arms)
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
	if want := []string{"period 3 (t = 3.001s): app stalled"}; !slices.Equal(rec.violations, want) {
		t.Fatalf("record holds %q, want %q", rec.violations, want)
	}
}
