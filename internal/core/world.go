// Package core is PLASMA's public facade and the one place its layers are
// wired: a World is simulator kernel, cluster, actor runtime and profiler
// (EPR), plus — once asked for — the elasticity management runtime (EMR)
// and a chaos injector.
//
// An application builds a world, deploys its actors and hands Manage an EPL
// policy, the one gate every policy passes on its way to an EMR:
//
//	w := core.NewWorld(seed, 8, cluster.M5Large, tracer) // K, C, RT, Prof
//	w.RT.SpawnOn("Worker", myBehavior, 0)                 // actors first
//	w.Manage(epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`),
//	    emr.Config{Period: sim.Second})
//	w.M.Start() // or call w.M.Tick() from a period loop of your own
//	w.Run(5 * sim.Minute)
package core

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/lint"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// World is one simulated deployment and the only place the layers are wired
// together. Construction order is load-bearing: kernel, cluster, runtime,
// profiler (NewWorld), then the caller's application build, then the manager
// and tracer (Manage), then the injector (Chaos). RNG draws and actor ids
// follow that order, so changing it changes every fixed-seed run.
type World struct {
	K    *sim.Kernel
	C    *cluster.Cluster
	RT   *actor.Runtime
	Prof *profile.Profiler
	M    *emr.Manager    // nil until Manage
	Inj  *chaos.Injector // nil until Chaos

	// Diagnostics holds what the policy front end found in the managed
	// policy short of rejecting it: epl.Check's §4.3 conflict warnings and
	// the lint passes' warnings and infos (nil until Manage).
	Diagnostics []lint.Diagnostic

	// Crashes and CtlFails count the machine and GEM/LEM crash events the
	// world applied as a chaos.Env (refused ones are not counted).
	Crashes, CtlFails int

	tr        *trace.Tracer
	floor     int
	protected map[cluster.MachineID]bool
}

// NewWorld builds kernel, cluster, actor runtime and profiler, and points
// the tracer's clock (nil = untraced) at the new kernel.
func NewWorld(seed int64, machines int, inst cluster.InstanceType, tr *trace.Tracer) *World {
	k := sim.New(seed)
	tr.SetClock(k.Now)
	c := cluster.New(k, machines, inst)
	rt := actor.NewRuntime(k, c)
	return &World{K: k, C: c, RT: rt, Prof: profile.New(k, c, rt), tr: tr}
}

// Manage is the policy gate: it runs the front end (epl.Check, then the lint
// passes) over pol once and panics, naming the error or the finding's code,
// when the compiler rejects the policy or a finding has error severity — a
// rule that can never fire is a configuration bug, not something to find
// after a day of simulated elasticity. The other findings go on Diagnostics.
// Then it creates the world's elasticity manager, hands it the tracer, which
// it fans out to the runtime, cluster and injector, makes it the runtime's
// new-actor placement and opens a fresh EPR window: the manager's first Tick
// closes it.
func (w *World) Manage(pol *epl.Policy, cfg emr.Config) *emr.Manager {
	diags, err := lint.CheckAndAnalyze(pol, nil)
	if err != nil {
		panic("core: policy rejected: " + err.Error())
	}
	for _, d := range diags {
		if d.Severity >= lint.Error {
			panic("core: policy rejected: " + d.String())
		}
	}
	w.Diagnostics = diags
	w.M = emr.New(w.K, w.C, w.RT, w.Prof, pol, cfg)
	w.M.SetTracer(w.tr)
	w.RT.SetPlacement(w.M)
	w.Prof.Reset()
	return w.M
}

// Chaos installs a control-plane fault injector on the manager, its fault
// stream derived from seed, and arms the world as the chaos.Env its
// schedules run against: crashes that would drop the fleet below floor or
// touch a protected (client-site) machine are refused. Call after Manage.
func (w *World) Chaos(seed int64, floor int, protected ...cluster.MachineID) *chaos.Injector {
	w.Inj = chaos.NewInjector(seed*31+7, w.K.Now)
	w.M.SetChaos(w.Inj)
	w.floor = floor
	w.protected = make(map[cluster.MachineID]bool, len(protected))
	for _, id := range protected {
		w.protected[id] = true
	}
	return w.Inj
}

// CrashMachine implements chaos.Env. A crash is immediately followed by the
// underlying runtime's fault tolerance re-homing the dead machine's actors
// (§2.2), exactly as the EMR machine-failure tests do.
func (w *World) CrashMachine(id int) bool {
	mid := cluster.MachineID(id)
	if w.protected[mid] || w.C.UpCount() <= w.floor || !w.C.Fail(mid) {
		return false
	}
	w.RT.RecoverMachine(mid)
	w.Crashes++
	return true
}

func (w *World) RepairMachine(id int) bool { return w.C.Repair(cluster.MachineID(id)) }

func (w *World) FailGEM(id int) bool {
	if !w.M.FailGEM(id) {
		return false
	}
	w.CtlFails++
	return true
}

func (w *World) RecoverGEM(id int) bool { return w.M.RecoverGEM(id) }

func (w *World) FailLEM(srv int) bool {
	mid := cluster.MachineID(srv)
	if w.protected[mid] || !w.M.FailLEM(mid) {
		return false
	}
	w.CtlFails++
	return true
}

func (w *World) RecoverLEM(srv int) bool { return w.M.RecoverLEM(cluster.MachineID(srv)) }

// Run advances virtual time by d.
func (w *World) Run(d sim.Duration) { w.K.Run(w.K.Now() + sim.Time(d)) }

// Client returns a request driver homed on the given machine.
func (w *World) Client(site cluster.MachineID) *actor.Client {
	return actor.NewClient(w.RT, site)
}

// Invariants is the global sweep between any two events, one message per
// violation: no migration more than bound past its RT.MoveCost (none in
// flight if bound is 0), no request answered twice, every actor homed on an
// up machine, each up machine's memory accounting exactly its residents' state.
func (w *World) Invariants(bound sim.Duration) []string {
	var bad []string
	if n := w.RT.InFlightMigrations(); bound == 0 && n > 0 {
		bad = append(bad, fmt.Sprintf("%d migrations in flight (none allowed)", n))
	} else if age, cost := w.RT.OverdueMigration(); age > cost+bound {
		bad = append(bad, fmt.Sprintf("a migration in flight for %v, %v past its %v move (bound %v)", age, age-cost, cost, bound))
	}
	if n := w.RT.DuplicateReplies(); n != 0 {
		bad = append(bad, fmt.Sprintf("requests answered more than once (%d extra replies)", n))
	}
	// One pass over the actor table buckets residents and their state by
	// machine; an actor homed on no machine is live but not placed.
	machines := w.C.Machines()
	on := make([]int, len(machines))
	mem := make([]int64, len(machines))
	total := 0
	w.RT.ForEachActor(func(info actor.Info) {
		total++
		if s := int(info.Server); s >= 0 && s < len(machines) {
			on[s]++
			mem[s] += info.MemBytes
		}
	})
	seen := 0
	for i, mach := range machines {
		seen += on[i]
		if !mach.Up() && on[i] > 0 {
			bad = append(bad, fmt.Sprintf("%d actors homed on down machine %d", on[i], mach.ID))
			continue
		}
		if mach.Up() && mem[i] != mach.MemUsed() {
			bad = append(bad, fmt.Sprintf("machine %d memory drift: accounted %d, actors hold %d",
				mach.ID, mach.MemUsed(), mem[i]))
		}
	}
	if seen != total {
		bad = append(bad, fmt.Sprintf("directory mismatch: %d placed vs %d live (actor lost or duplicated)", seen, total))
	}
	return bad
}
