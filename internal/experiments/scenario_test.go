package experiments

import (
	"testing"

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
