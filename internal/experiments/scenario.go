package experiments

import (
	"fmt"

	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// scenario is one experiment arm as a value — the (application, rules,
// workload) row the paper's Table 1 lists — and run is the only code in this
// package that builds and drives a world from one. The steps and their order
// are core.World's: world → app build → manager → injector → period loop →
// load → run → stop/settle → sweep. RNG draws, actor ids and event counts
// follow call order, so each closure schedules what its step says and nothing
// else. The sweep, after every period and at the end, is the only invariant
// check: each violation lands on the run's record (Config.stats), which Run
// joins into Result.Claim.
type scenario struct {
	machines int // fleet at time zero, client sites included
	inst     cluster.InstanceType

	// build deploys the application on the fresh world. wire then delivers
	// the messages Build sent to connect its actors, before a manager exists.
	build func(w *core.World)
	wire  bool

	// The manager is an EPL policy with its emr.Config, whose Tick run calls
	// every (defaulted) emr.Period, or a comparison manager built from the
	// world's parts and handed over as its per-period step, which run calls
	// every emr.Period with the window it just closed; an arm with neither
	// is unmanaged.
	policy   string
	emr      emr.Config
	baseline func(w *core.World) (tick func(snap *epl.Snapshot))

	// faults is the fault schedule of an EPL-managed arm (nil = none).
	faults *faultPlan

	// load starts the load generators once the manager is running.
	load func(w *core.World)

	// probe sees each elasticity period's snapshot right after the period's
	// step, at the same instant: the one the EMR or the comparison manager
	// planned from, or on an unmanaged arm the one it would have planned from.
	probe func(w *core.World, tick int, snap *epl.Snapshot)

	// An open arm runs to horizon. A closed job sets done and is stepped
	// until it reports true, horizon being its deadline. settle > 0 runs that
	// much longer once the manager has stopped, so the last sweep allows no
	// migration in flight; 0 cuts the world off where it stands. stalled,
	// if set, is a liveness check the last sweep reports ("" = alive).
	horizon sim.Duration
	done    func() bool
	settle  sim.Duration
	stalled func(out outcome) string
}

// faultPlan is a fault schedule: one message-fault mix on every control-plane
// message kind, crash/recovery pairs drawn from the injector's seeded stream,
// and explicit events. A crash that would take the fleet below floor or touch
// a protected (client-site) machine is refused.
type faultPlan struct {
	floor     int
	protected []cluster.MachineID
	msg       chaos.Faults
	draw      chaos.ScheduleOpts
	events    []chaos.Event
}

// outcome is what an arm's renderer reads: the world as the run left it
// (runtime, cluster, manager stats, injector) and what only run saw.
type outcome struct {
	*core.World
	// peakSrv is the fleet-size probe: UpCount() — client sites included —
	// once the app is built, at every elasticity period, and at the end.
	peakSrv   int
	lastFault sim.Time // when the fault schedule's final event fires
}

// run executes one arm at one seed.
func run(cfg Config, seed int64, sc scenario) outcome {
	w := cfg.world(seed, sc.machines, sc.inst)
	sc.build(w)
	if sc.wire {
		w.K.RunUntilIdle()
	}
	out := outcome{World: w, peakSrv: w.C.UpCount()}
	sample := func() {
		if up := w.C.UpCount(); up > out.peakSrv {
			out.peakSrv = up
		}
	}

	// One loop steps every arm's period — the EMR's Tick, or closing the EPR
	// window for the comparison manager — then probes the step's snapshot and
	// sweeps the invariants.
	closeWindow := func() *epl.Snapshot {
		snap := w.Prof.Snapshot(nil)
		w.Prof.Reset()
		return snap
	}
	var step func() *epl.Snapshot
	period := sc.emr.Period
	switch {
	case sc.policy != "":
		m := w.Manage(epl.MustParse(sc.policy), sc.emr)
		if f := sc.faults; f != nil {
			inj := w.Chaos(seed, f.floor, f.protected...)
			inj.SetAllFaults(f.msg)
			events := append(inj.Generate(f.draw), f.events...)
			inj.Apply(w.K, w, events)
			for _, ev := range events {
				if ev.At > out.lastFault {
					out.lastFault = ev.At
				}
			}
		}
		step, period = m.Tick, m.Cfg.Period
	case sc.baseline != nil:
		plan := sc.baseline(w)
		step = func() *epl.Snapshot {
			snap := closeWindow()
			plan(snap)
			return snap
		}
	case sc.probe != nil:
		step = closeWindow
	}
	running, n := step != nil, 0
	if running {
		w.K.Every(period, func() bool {
			if running {
				n++
				snap := step()
				sample()
				if sc.probe != nil {
					sc.probe(w, n, snap)
				}
				cfg.stats.sweep(w, n, 0, 2*period)
			}
			return running
		})
	}
	if sc.load != nil {
		sc.load(w)
	}

	end := sim.Time(sc.horizon)
	if sc.done != nil {
		for !sc.done() && w.K.Now() < end && w.K.Step() {
		}
	} else {
		w.K.Run(end)
	}

	// The loop stops; settle lets the last period's migrations commit before
	// the last sweep, and a zero settle leaves the world exactly as it stands.
	running = false
	bound := 2 * period
	if sc.settle > 0 {
		w.Run(sc.settle)
		bound = 0
	}
	sample()
	stalled := ""
	if sc.stalled != nil {
		stalled = sc.stalled(out)
	}
	cfg.stats.sweep(w, n, n, bound, stalled)
	return out
}

// sweep checks w's invariants after its arm's nth period, a migration
// allowed bound in flight, and records each violation, and each non-empty
// finding in more, as "period n (t = …): message". An arm's last sweep
// passes the periods it stepped.
func (t *simTracker) sweep(w *core.World, n, stepped int, bound sim.Duration, more ...string) {
	if t == nil {
		return
	}
	bad := append(w.Invariants(bound), more...)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweeps, t.periods = t.sweeps+1, t.periods+stepped
	for _, msg := range bad {
		if msg != "" {
			t.violations = append(t.violations, fmt.Sprintf("period %d (t = %v): %s", n, sim.Duration(w.K.Now()), msg))
		}
	}
}
