package chaos

import (
	"fmt"
	"sort"

	"plasma/internal/sim"
)

// Op is a scheduled crash/recovery fault against the control plane or the
// machine fleet.
type Op int

const (
	// CrashMachine fails a machine; the underlying runtime's fault
	// tolerance re-homes its actors onto survivors.
	CrashMachine Op = iota
	// RepairMachine returns a previously crashed machine to service.
	RepairMachine
	// FailGEM crashes a global elasticity manager.
	FailGEM
	// RecoverGEM brings a failed GEM back.
	RecoverGEM
	// FailLEM crashes a server's local elasticity manager: the server drops
	// out of the global snapshot and answers no admission queries, but its
	// actors keep running (control-plane failure, not machine failure).
	FailLEM
	// RecoverLEM re-registers a failed LEM.
	RecoverLEM
)

func (o Op) String() string {
	switch o {
	case CrashMachine:
		return "crash-machine"
	case RepairMachine:
		return "repair-machine"
	case FailGEM:
		return "fail-gem"
	case RecoverGEM:
		return "recover-gem"
	case FailLEM:
		return "fail-lem"
	case RecoverLEM:
		return "recover-lem"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Event is one timed fault.
type Event struct {
	At     sim.Time
	Op     Op
	Target int // machine id, GEM id, or LEM server id, per Op
}

// Env is what a fault schedule executes against; the experiment harness
// bridges it to the cluster, actor runtime, and EMR. Implementations may
// refuse an event (return false) — e.g. crashing the last surviving
// machine — and the refusal is recorded as a KindChaos record.
type Env interface {
	CrashMachine(id int) bool
	RepairMachine(id int) bool
	FailGEM(id int) bool
	RecoverGEM(id int) bool
	FailLEM(srv int) bool
	RecoverLEM(srv int) bool
}

// Apply schedules every event on the kernel, dispatching through env and
// recording each application (or refusal) as a KindChaos record.
func (in *Injector) Apply(k *sim.Kernel, env Env, events []Event) {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, ev := range sorted {
		ev := ev
		k.At(ev.At, func() {
			var ok bool
			switch ev.Op {
			case CrashMachine:
				ok = env.CrashMachine(ev.Target)
			case RepairMachine:
				ok = env.RepairMachine(ev.Target)
			case FailGEM:
				ok = env.FailGEM(ev.Target)
			case RecoverGEM:
				ok = env.RecoverGEM(ev.Target)
			case FailLEM:
				ok = env.FailLEM(ev.Target)
			case RecoverLEM:
				ok = env.RecoverLEM(ev.Target)
			}
			if in.tr.Enabled() {
				detail := fmt.Sprintf("%s %d", ev.Op, ev.Target)
				if !ok {
					detail += " skipped"
				}
				in.emit(detail)
			}
		})
	}
}

// ScheduleOpts sizes a generated fault schedule.
type ScheduleOpts struct {
	// Horizon is the window faults are drawn from; recoveries may land up
	// to MeanOutage past it.
	Horizon sim.Time
	// Machines are the crashable machine ids (client-site machines should
	// be excluded by the caller).
	Machines []int
	// GEMs is the GEM count; LEMs are the LEM server ids.
	GEMs int
	LEMs []int
	// Crashes, GEMFails, LEMFails count fault pairs of each family; every
	// fault is followed by its matching recovery after ~MeanOutage.
	Crashes  int
	GEMFails int
	LEMFails int
	// MeanOutage is the average fault-to-recovery gap (default 10s).
	MeanOutage sim.Duration
}

// Generate draws a randomized-but-seeded fault schedule from the
// injector's stream: each fault picks a target and an instant uniformly
// over the horizon, paired with a recovery one exponential-ish outage
// later. Generation consumes the stream deterministically, so a given
// (seed, opts) always yields the same schedule.
func (in *Injector) Generate(opts ScheduleOpts) []Event {
	if opts.MeanOutage == 0 {
		opts.MeanOutage = 10 * sim.Second
	}
	var events []Event
	pair := func(n int, targets []int, fail, recover Op) {
		for i := 0; i < n && len(targets) > 0; i++ {
			t := targets[in.rng.Intn(len(targets))]
			at := sim.Time(in.rng.Int63n(int64(opts.Horizon)))
			outage := sim.Duration(float64(opts.MeanOutage) * (0.5 + in.rng.Float64()))
			events = append(events,
				Event{At: at, Op: fail, Target: t},
				Event{At: at + sim.Time(outage), Op: recover, Target: t})
		}
	}
	pair(opts.Crashes, opts.Machines, CrashMachine, RepairMachine)
	gems := make([]int, opts.GEMs)
	for i := range gems {
		gems[i] = i
	}
	pair(opts.GEMFails, gems, FailGEM, RecoverGEM)
	pair(opts.LEMFails, opts.LEMs, FailLEM, RecoverLEM)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}
