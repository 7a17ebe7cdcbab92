package emr

import (
	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

// DecisionBench is the harness behind cmd/plasma-bench's
// planner_decision_time entry: one GEM planning round over a synthetic
// dense snapshot, sized up to the tentpole scale (a million actors on a
// thousand servers). The snapshot is built once here, outside the timed
// region — the entry measures the decision round itself, which is the part
// that sits between REPORT and RREPLY and therefore must stay off the
// migration critical path.
//
// The fleet shape is fixed and arithmetic (no RNG): every tenth server is
// CPU-hot, the next one memory-hot, every tenth cold, the rest mid-band,
// so both band intents always have real shedding work and the cold tail
// gives targets on every axis. Every fourth actor carries one profiled
// caller edge to its predecessor, giving the round's affinity scoring a
// sparse graph of the density the profiler produces in practice.
// A fixed fleet means the action counts the round plans are pure functions
// of (actors, servers) — plasma-bench records them in the entry's Summary,
// where the -compare determinism gate will flag any planner drift.
type DecisionBench struct {
	NumActors  int
	NumServers int

	m    *Manager
	snap *epl.Snapshot
	in   *epl.Intents
}

// NewDecisionBench builds the synthetic fleet and snapshot.
func NewDecisionBench(actors, servers int) *DecisionBench {
	k := sim.New(1)
	typ := cluster.InstanceType{Name: "bench", VCPUs: 2, MemMB: 8192, NetMbps: 10000, Boot: 10 * sim.Second, SpeedFac: 1}
	c := cluster.New(k, servers, typ)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	m := New(k, c, rt, prof, epl.MustParse(`true => pin(Nothing(n));`),
		Config{Period: sim.Second, MinResidence: sim.Millisecond})
	// Advance past the residence window so every fabricated actor
	// (LastMoved = 0) is movable, as in a steady-state period.
	k.Run(sim.Time(sim.Second))

	b := &DecisionBench{NumActors: actors, NumServers: servers, m: m}
	snap := &epl.Snapshot{At: k.Now(), Window: sim.Second}
	srvCPU := make([]float64, servers)
	srvMem := make([]float64, servers)
	for i := 0; i < servers; i++ {
		cpu, mem := 55.0, 50.0
		switch i % 10 {
		case 0:
			cpu, mem = 92, 40
		case 1:
			cpu, mem = 40, 90
		case 9:
			cpu, mem = 12, 10
		}
		srvCPU[i], srvMem[i] = cpu, mem
		snap.Servers = append(snap.Servers, &epl.ServerInfo{
			ID: cluster.MachineID(i), CPUPerc: cpu, MemPerc: mem, NetPerc: 20,
			VCPUs: typ.VCPUs, MemMB: typ.MemMB, NetMbps: typ.NetMbps, Up: true,
		})
	}
	per := actors / servers
	if per < 1 {
		per = 1
	}
	snap.Actors = make([]*epl.ActorInfo, 0, actors)
	for i := 0; i < actors; i++ {
		srv := i % servers
		ai := &epl.ActorInfo{
			Ref:      actor.Ref{ID: actor.ID(i + 1)},
			Type:     "W",
			Server:   cluster.MachineID(srv),
			CPUPerc:  srvCPU[srv] / float64(per),
			MemPerc:  srvMem[srv] / float64(per),
			NetPerc:  20 / float64(per),
			MemBytes: int64(srvMem[srv] / float64(per) / 100 * float64(typ.MemMB) * 1024 * 1024),
		}
		if i%4 == 0 && i > 0 {
			ai.Calls = []epl.CallStat{{CallerType: "W", Caller: actor.Ref{ID: actor.ID(i)}, Method: "m", Count: 16, Bytes: 4096}}
		}
		snap.Actors = append(snap.Actors, ai)
	}
	b.snap = snap.Index()
	b.in = &epl.Intents{Balance: []epl.BalanceIntent{
		{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60},
		{Types: []string{"W"}, Res: epl.Mem, Upper: 80, Lower: 60},
	}}
	return b
}

// Run executes one planning round and returns the number of actions
// planned. The snapshot's actors and servers are never mutated, so repeated
// runs are independent and identical. Each run re-indexes the snapshot
// first, so it is a period's first round and pays for the per-server
// buckets and the affinity graph that later GEMs' rounds over the same
// snapshot share; BenchmarkPlannerDecision, TestPlanRoundAllocCeiling and
// the benchmark's emr.plan_ms_per_round.* time that round, as they did when
// every round built its own. The argument is ignored: it once named one of two
// planners, and benchmark/layers.go — which a PR touching internal/ may not
// edit — still calls Run("") and Run("batch"), so its
// emr.plan_ms_per_round.legacy and .batch read the same round until a
// benchmark PR drops one.
func (b *DecisionBench) Run(string) int {
	acts, _, _, _, _ := b.m.planResource(nil, b.snap.Index(), b.in, 0, 0)
	return len(acts)
}
