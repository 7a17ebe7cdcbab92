package experiments

import (
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// An arm with a comparison manager and a probe: every period, run closes the
// EPR window once and hands the same snapshot to the manager, then to the
// probe.
func TestRunHandsBaselineAndProbeOneWindow(t *testing.T) {
	type call struct {
		who  string
		tick int
		snap *epl.Snapshot
		at   sim.Time
		win  sim.Duration
	}
	var calls []call
	sc := scenario{
		machines: 2,
		inst:     cluster.M1Small,
		build:    func(*core.World) {},
		emr:      emr.Config{Period: sim.Second},
		baseline: func(w *core.World) func(*epl.Snapshot) {
			return func(snap *epl.Snapshot) {
				calls = append(calls, call{"manager", 0, snap, snap.At, snap.Window})
			}
		},
		probe: func(w *core.World, tick int, snap *epl.Snapshot) {
			calls = append(calls, call{"probe", tick, snap, snap.At, snap.Window})
		},
		horizon: 5 * sim.Second,
	}
	run(Config{}, 1, sc)

	if len(calls) != 10 {
		t.Fatalf("%d calls over 5 periods, want a manager and a probe call in each: %+v", len(calls), calls)
	}
	for i := 0; i < len(calls); i += 2 {
		mgr, probe := calls[i], calls[i+1]
		if mgr.who != "manager" || probe.who != "probe" {
			t.Fatalf("period %d called %s then %s, want manager then probe", i/2+1, mgr.who, probe.who)
		}
		if want := i/2 + 1; probe.tick != want {
			t.Errorf("probe tick %d, want %d", probe.tick, want)
		}
		if probe.snap != mgr.snap || probe.at != mgr.at || probe.win != mgr.win {
			t.Errorf("period %d: probe saw %p (at %v, window %v), manager %p (at %v, window %v)",
				i/2+1, probe.snap, probe.at, probe.win, mgr.snap, mgr.at, mgr.win)
		}
		if want := sim.Time(i/2+1) * sim.Time(sim.Second); mgr.at != want || mgr.win != sim.Second {
			t.Errorf("period %d: window closed at %v after %v, want at %v after 1s",
				i/2+1, mgr.at, mgr.win, want)
		}
	}
}
