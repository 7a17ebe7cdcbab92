package experiments

import (
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/lint/model"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Counterexample replay: the model checker (internal/lint/model) proves
// properties over an *abstraction* — uniform load, instantaneous boots,
// one drift step per period. ReplayPath closes the loop by driving the
// abstract counterexample's load schedule through the real simulator
// (cluster + actor runtime + profiler + EMR) and reading the corroborated
// scale decisions back out of the trace stream, so every EPL200 finding
// can be checked against the system it indicts.

// scaleLog is a trace sink retaining only the corroborated scale
// decisions, in emission order — the oracle the replay consults.
type scaleLog struct {
	recs []trace.Record
}

func (l *scaleLog) Emit(r trace.Record) {
	if r.Kind == trace.KindScaleOut || r.Kind == trace.KindScaleIn {
		l.recs = append(l.recs, r)
	}
}

// ReplayOpts configures one counterexample replay.
type ReplayOpts struct {
	// Policy is the EPL source (lint annotations are ignored by the lexer).
	Policy string
	// Class is the actor class to spawn the workers as. When empty it is
	// taken from the policy's first balance behavior, so the fleet the
	// replay drives is the one the policy actually governs.
	Class string
	// Env is the workload envelope the counterexample was checked under;
	// it fixes the load-to-arrival-rate mapping and the fleet bounds.
	Env model.Envelope
	// Loads is the per-period load schedule (post-drift levels, in model
	// path order — pass the counterexample Steps' Load fields).
	Loads []int
	// CycleFrom is the index the schedule repeats from once exhausted
	// (a counterexample's CycleFrom); -1 holds the last level instead.
	CycleFrom int
	// Periods is how many elasticity periods to simulate.
	Periods int
	Seed    int64
}

// ReplayOut is one replay's outcome, read from the trace records.
type ReplayOut struct {
	// ScaleOuts and ScaleIns count corroborated scale *decisions*
	// (KindScaleOut / KindScaleIn trace records).
	ScaleOuts int
	ScaleIns  int
	// Flips counts direction changes in the decision sequence — the
	// oscillation measure the EPL200 property tests bound.
	Flips int
	// StatOuts/StatIns are the EMR's machine-level counters (machines
	// booted / decommissioned), for cross-checking against the decisions.
	StatOuts int
	StatIns  int
	FinalSrv int
	Shed     int64
}

// ReplayPath replays a load schedule through the real simulator. One
// abstract load unit is the work one server absorbs per 1/PerServer of
// its capacity, so the aggregate arrival rate at level λ is
// λ/(PerServer·reqCost) and the per-server utilization the profiler
// measures converges to the model's 100·λ/(n·PerServer).
func ReplayPath(o ReplayOpts) ReplayOut {
	const (
		period  = 500 * sim.Millisecond
		reqCost = burstReqCost
		clients = 16
	)
	env := o.Env
	class := o.Class
	if class == "" {
		class = balanceClass(o.Policy)
	}
	// 12 actors per initial server keeps per-actor load small enough that
	// balance can land any fleet size in the envelope inside a policy's
	// hysteresis band (the abstraction assumes perfectly divisible load).
	frontends := 12 * env.InitServers

	loadAt := func(i int) int {
		switch {
		case i < len(o.Loads):
			return o.Loads[i]
		case o.CycleFrom >= 0 && o.CycleFrom < len(o.Loads):
			cyc := o.Loads[o.CycleFrom:]
			return cyc[(i-len(o.Loads))%len(cyc)]
		case len(o.Loads) > 0:
			return o.Loads[len(o.Loads)-1]
		default:
			return env.InitLoad
		}
	}

	// Open-loop client rate: baseline is the schedule's first level; the
	// multiplier tracks the schedule period by period.
	base := loadAt(0)
	if base < 1 {
		base = 1
	}
	ratePerLoad := 1 / (float64(env.PerServer) * reqCost.Seconds())
	baseEvery := sim.Duration(float64(clients) / (float64(base) * ratePerLoad) * float64(sim.Second))
	rate := func(t sim.Time) float64 {
		lvl := loadAt(int(t / sim.Time(period)))
		if lvl < 1 {
			lvl = 1
		}
		return float64(lvl) / float64(base)
	}

	log := &scaleLog{}
	cfg := Config{Seed: o.Seed, Trace: trace.New(log)}
	out := burstTrial(cfg, o.Seed, burstOpts{
		servers: env.InitServers, frontends: frontends, class: class,
		policy: o.Policy,
		emr: emr.Config{Period: period, NumGEMs: 1, ScaleIn: true,
			MinServers: env.MinServers, ProvSpecs: replaySpecs(env)},
		total:   sim.Duration(o.Periods) * period,
		clients: clients, baseEvery: baseEvery, rate: rate,
		mailboxCap: 64,
	})

	r := ReplayOut{
		StatOuts: out.M.Stats.ScaleOuts, StatIns: out.M.Stats.ScaleIns,
		FinalSrv: out.C.UpCount(), Shed: out.RT.ShedRequests(),
	}
	last := trace.Kind(0)
	seen := false
	for _, rec := range log.recs {
		if rec.Kind == trace.KindScaleOut {
			r.ScaleOuts++
		} else {
			r.ScaleIns++
		}
		if seen && rec.Kind != last {
			r.Flips++
		}
		last, seen = rec.Kind, true
	}
	return r
}

// balanceClass extracts the actor class the policy's first balance
// behavior covers — a replayed policy must govern the actors the replay
// spawns, or balance plans nothing while scale-out pressure persists.
func balanceClass(src string) string {
	pol, err := epl.Parse(src)
	if err != nil {
		return "Worker"
	}
	for _, r := range pol.Rules {
		for _, b := range r.Behaviors {
			if bb, ok := b.(*epl.BalanceBeh); ok && len(bb.Types) > 0 {
				return bb.Types[0]
			}
		}
	}
	return "Worker"
}

// replaySpecs builds the provisioning spectrum from the envelope's
// classes with near-instant, infallible boots — the model abstracts boot
// latency away, so the replay must not reintroduce it.
func replaySpecs(env model.Envelope) []cluster.ProvSpec {
	var specs []cluster.ProvSpec
	for _, cl := range env.Classes {
		pc, ok := cluster.ProvClassFromString(cl.Name)
		if !ok {
			continue
		}
		specs = append(specs, cluster.ProvSpec{
			Class: pc, BootMin: 20 * sim.Millisecond, BootMax: 40 * sim.Millisecond,
			Capacity: cl.Cap,
		})
	}
	return specs
}

// DriftWalk rolls the envelope's drift distribution forward, returning a
// per-period load schedule for the property sweeps. The generator is a
// self-contained LCG so sweeps are reproducible byte for byte at a fixed
// seed, independent of any kernel's draw order.
func DriftWalk(env model.Envelope, periods int, seed uint64) []int {
	loads := make([]int, periods)
	x := seed*2862933555777941757 + 3037000493
	load := env.InitLoad
	for i := range loads {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / float64(1<<53)
		d := 0 // no-change fallback guards float round-off
		acc := 0.0
		for j, p := range env.DriftProbs {
			acc += p
			if u < acc {
				d = j - env.Drift
				break
			}
		}
		load += d
		if load < env.MinLoad {
			load = env.MinLoad
		}
		if load > env.MaxLoad {
			load = env.MaxLoad
		}
		loads[i] = load
	}
	return loads
}
