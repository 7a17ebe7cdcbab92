package experiments

import (
	"fmt"
	"sync"

	"plasma/internal/apps/pagerank"
	"plasma/internal/baseline"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

// prSetup sizes the PageRank experiments; the five paper ids and
// plan_pagerank share one pair (prQuick, prFull), which each adapts.
type prSetup struct {
	vertices   int
	avgDeg     float64
	workers    int
	iterations int
	perEdge    sim.Duration
	syncOver   sim.Duration
	period     sim.Duration
	boot       sim.Duration // provisioning delay for scale-out experiments
	state      int64        // worker state bytes per vertex (0 = the app's default)
}

// instance is the m5.large the experiments run on, booting in su.boot when
// an arm provisions more of them.
func (su prSetup) instance() cluster.InstanceType {
	inst := cluster.M5Large
	if su.boot > 0 {
		inst.Boot = su.boot
	}
	return inst
}

// prInput is the generated graph and its partition. Both depend only on
// (setup, seed) and nothing writes to them, so Config.input builds one per
// seed and hands it to every arm that asks.
type prInput struct {
	g     *graph.Graph
	parts []int
}

func pagerankInput(su prSetup, seed int64) prInput {
	g := graph.GeneratePowerLaw(su.vertices, su.avgDeg, 2.1, seed)
	return prInput{g: g, parts: graph.PartitionMultilevel(g, su.workers, seed)}
}

// Inputs keeps a sweep's PageRank inputs; the zero value is ready to use.
type Inputs struct{ pr sync.Map }

// input is pagerankInput, built once per (vertices, avgDeg, workers, seed)
// for all the Runs that share c.Inputs.
func (c Config) input(su prSetup, seed int64) prInput {
	k := [4]float64{float64(su.vertices), su.avgDeg, float64(su.workers), float64(seed)}
	in, ok := c.Inputs.pr.Load(k)
	if !ok {
		in, _ = c.Inputs.pr.LoadOrStore(k, pagerankInput(su, seed))
	}
	return in.(prInput)
}

// prArm is one PageRank arm: the scenario that deploys the job and steps it
// until its iterations are done (so elasticity managers stop ticking into
// dead time), and the app once the scenario has built it.
type prArm struct {
	scenario
	app *pagerank.App
}

// pagerankArm deploys in's partitions on the given machines; the caller adds
// the arm's manager, if it has one.
func pagerankArm(su prSetup, in prInput, machines int, placement []cluster.MachineID, deadline sim.Duration) *prArm {
	a := &prArm{}
	a.scenario = scenario{
		machines: machines, inst: su.instance(),
		build: func(w *core.World) {
			a.app = pagerank.Build(w.K, w.RT, pagerank.Config{
				Graph: in.g, Parts: in.parts, K: su.workers,
				PerEdgeCost: su.perEdge, SyncOverhead: su.syncOver, Iterations: su.iterations,
				HeteroSpread: 0.5, StatePerVertex: su.state,
			}, placement)
		},
		load:    func(w *core.World) { a.app.Start(w.K) },
		done:    func() bool { return a.app.Done },
		horizon: deadline,
	}
	return a
}

// randomPlacement randomly assigns workers to machines while keeping actor
// counts equal (the paper's setup: 32 partitions "randomly assign[ed]"
// across 8 VMs with "the number of actors already balanced across servers",
// so Orleans' count-based management takes no further action).
func randomPlacement(seed int64, workers, machines int) []cluster.MachineID {
	k := sim.New(seed)
	perm := k.Rand().Perm(workers)
	out := make([]cluster.MachineID, workers)
	for i, p := range perm {
		out[p] = cluster.MachineID(i % machines)
	}
	return out
}

// fig6a reproduces §5.4 "dynamic workload balance": 32 workers on 8
// m5.large VMs (16 vCPUs), PLASMA's balance rule vs Orleans' equal-count
// management (which takes no action: counts are already equal). Averaged
// over 3 seeds. Paper: PLASMA converges ~24% faster.
func fig6a(cfg Config, su prSetup, r *Result) {
	r.Header = []string{"Elasticity", "Converged iteration time", "Runs"}
	seeds := []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}

	arm := func(mode string, seed int64) sim.Duration {
		a := pagerankArm(su, cfg.input(su, seed), 8, randomPlacement(seed*7+1, su.workers, 8), 20*sim.Minute)
		switch mode {
		case "plasma":
			a.policy, a.emr = pagerank.PolicySrc, emr.Config{Period: su.period}
		case "orleans":
			a.emr.Period = su.period
			a.baseline = func(w *core.World) func(*epl.Snapshot) {
				return (&baseline.Orleans{RT: w.RT, Types: map[string]bool{"Worker": true}}).Tick
			}
		}
		run(cfg, seed, a.scenario)
		return a.app.ConvergedTime()
	}

	means := map[string]float64{}
	for _, mode := range []string{"plasma", "orleans"} {
		var sum sim.Duration
		for _, seed := range seeds {
			sum += arm(mode, seed)
		}
		mean := sum / sim.Duration(len(seeds))
		means[mode] = float64(mean)
		r.addRow(mode, mean.String(), fmt.Sprintf("%d", len(seeds)))
		r.Summary["converged_ms_"+mode] = float64(mean) / float64(sim.Millisecond)
	}
	if means["orleans"] > 0 {
		imp := (means["orleans"] - means["plasma"]) / means["orleans"] * 100
		r.Summary["plasma_improvement_pct"] = imp
		r.notef("paper: PLASMA converges ~24%% faster than Orleans; measured %.1f%%", imp)
	}
}

// fig6b reproduces §5.4 "dynamic resource allocation" (average view):
// PLASMA grows from 1 server under the balance rule vs conservative
// provisioning with one worker per vCPU (16 m5.large = 32 vCPUs). Paper:
// PLASMA reaches nearly identical performance with 12 servers (25% fewer
// resources).
func fig6b(cfg Config, su prSetup, r *Result) {
	r.Header = []string{"Setup", "Converged iteration time", "Servers used"}
	su.iterations *= 5 // give scale-out time to converge
	in := cfg.input(su, cfg.Seed)

	// Conservative: 16 servers, 2 workers (one per vCPU) each.
	placement := make([]cluster.MachineID, su.workers)
	for i := range placement {
		placement[i] = cluster.MachineID(i / 2)
	}
	conSrv := 16
	con := pagerankArm(su, in, conSrv, placement, 30*sim.Minute)
	run(cfg, cfg.Seed, con.scenario)
	conservative := con.app.ConvergedTime()
	r.addRow("conservative (32 vCPU)", conservative.String(), fmt.Sprintf("%d", conSrv))
	r.Summary["converged_ms_conservative"] = float64(conservative) / float64(sim.Millisecond)

	// PLASMA: everything starts on one server; scale-out provisions more.
	dyn := pagerankArm(su, in, 1, make([]cluster.MachineID, su.workers), 30*sim.Minute)
	dyn.policy, dyn.emr = pagerank.PolicySrc, emr.Config{Period: su.period, ScaleOut: true, InstanceType: su.instance()}
	out := run(cfg, cfg.Seed, dyn.scenario)
	plasma := dyn.app.ConvergedTime()
	used := out.C.UpCount()
	r.addRow("PLASMA (dynamic)", plasma.String(), fmt.Sprintf("%d", used))
	r.Summary["converged_ms_plasma"] = float64(plasma) / float64(sim.Millisecond)
	r.Summary["servers_plasma"] = float64(used)
	r.Summary["servers_conservative"] = float64(conSrv)
	if conSrv > 0 {
		r.Summary["resource_saving_pct"] = float64(conSrv-used) / float64(conSrv) * 100
	}
	r.notef("paper: PLASMA ~matches conservative performance with 12 of 16 servers (25%% saving)")
}

// fig7a reproduces the Mizan comparison: normalized per-iteration times for
// PLASMA and a Mizan-style vertex migrator, each with and without
// elasticity. Mizan equalizes per-worker partitions but cannot move actors
// between servers, so per-server skew from random placement persists.
// Paper: Mizan's elasticity gains <=3%; PLASMA's ~24%.
func fig7a(cfg Config, su prSetup, r *Result) {
	r.Header = []string{"System", "Mean normalized iteration time (tail)", "Gain vs no elasticity"}
	// The paper's figure spans 19 iterations; both systems are measured
	// over that horizon (Mizan migrates incrementally per superstep and
	// has not converged by then — one reason its measured gain is small).
	su.iterations = 19
	su.period = su.period / 2
	in := cfg.input(su, cfg.Seed)

	arm := func(system string, elastic bool) []sim.Duration {
		su := su
		if system == "mizan" {
			// Mizan's framework is ~4x slower per edge in the paper's runs.
			su.perEdge *= 4
		}
		a := pagerankArm(su, in, 8, randomPlacement(cfg.Seed*7+1, su.workers, 8), 60*sim.Minute)
		switch {
		case !elastic:
		case system == "mizan":
			start := a.load
			a.load = func(w *core.World) {
				(&pagerank.Mizan{App: a.app}).Attach()
				start(w)
			}
		default:
			a.policy, a.emr = pagerank.PolicySrc, emr.Config{Period: su.period}
		}
		run(cfg, cfg.Seed, a.scenario)
		return a.app.IterationTimes
	}

	gains := map[string]float64{}
	for _, system := range []string{"plasma", "mizan"} {
		base := arm(system, false)
		norm := float64(base[0]) // normalize to the first no-elasticity iteration
		tail := func(times []sim.Duration) float64 {
			s := metrics.Series{Y: make([]float64, len(times))}
			for i, d := range times {
				s.Y[i] = float64(d) / norm
			}
			return s.TailMeanY(0.3)
		}
		bTail, eTail := tail(base), tail(arm(system, true))
		gain := (bTail - eTail) / bTail * 100
		gains[system] = gain
		r.addRow(system, fmt.Sprintf("%.3f -> %.3f", bTail, eTail), pct(gain))
		r.Summary["gain_pct_"+system] = gain
	}
	r.notef("paper: Mizan elasticity improves iterations by <=3%%, PLASMA by up to 24%%; measured mizan %.1f%%, plasma %.1f%%",
		gains["mizan"], gains["plasma"])
}

// fig7bc reproduces the Fig. 7b/7c traces from one elastic Fig6a run:
// per-server CPU% at each redistribution (elasticity period), reported as
// the spread across servers at the first and the last.
func fig7bc(cfg Config, su prSetup, r *Result) {
	a := pagerankArm(su, cfg.input(su, cfg.Seed), 8, randomPlacement(cfg.Seed*7+1, su.workers, 8), 20*sim.Minute)
	a.policy, a.emr = pagerank.PolicySrc, emr.Config{Period: su.period}
	// cpu[i] is server i's CPU% at each redistribution its snapshot row saw.
	var cpu [8][]float64
	a.probe = func(w *core.World, tick int, snap *epl.Snapshot) {
		for i := range cpu {
			if s := snap.Server(cluster.MachineID(i)); s != nil {
				cpu[i] = append(cpu[i], s.CPUPerc)
			}
		}
	}
	out := run(cfg, cfg.Seed, a.scenario)

	// Spread of CPU% across servers, first vs last redistribution.
	spread := func(tick int) float64 {
		var vals []float64
		for _, c := range cpu {
			if tick < len(c) {
				vals = append(vals, c[tick])
			}
		}
		return metrics.Imbalance(vals)
	}
	last := len(cpu[0]) - 1
	if last >= 1 {
		r.Summary["cpu_imbalance_first"] = spread(0)
		r.Summary["cpu_imbalance_last"] = spread(last)
		r.Summary["redistributions"] = float64(last + 1)
	}
	r.Summary["migrations"] = float64(out.M.Stats.ExecutedMigrations)
	r.notef("paper: CPU%% of servers converges into the [60,80] band as workers are re-located")
}

// fig8 reproduces the dynamic-allocation traces: iteration times as PLASMA
// provisions servers from 1 toward the bound-satisfying fleet, reported as
// the first iteration against the last fifth.
func fig8(cfg Config, su prSetup, r *Result) {
	su.iterations *= 5

	a := pagerankArm(su, cfg.input(su, cfg.Seed), 1, make([]cluster.MachineID, su.workers), 40*sim.Minute)
	a.policy, a.emr = pagerank.PolicySrc, emr.Config{Period: su.period, ScaleOut: true, InstanceType: su.instance()}

	out := run(cfg, cfg.Seed, a.scenario)
	iterSeries := &metrics.Series{}
	for i, d := range a.app.IterationTimes {
		iterSeries.Add(float64(i+1), d.Seconds())
	}
	if iterSeries.Len() > 2 {
		r.Summary["first_iter_s"] = iterSeries.Y[0]
		r.Summary["final_iter_s"] = iterSeries.TailMeanY(0.2)
		r.Summary["speedup"] = iterSeries.Y[0] / iterSeries.TailMeanY(0.2)
	}
	r.Summary["final_servers"] = float64(out.C.UpCount())
	r.Summary["scaleouts"] = float64(out.M.Stats.ScaleOuts)
	r.notef("paper: performance improves round by round as servers are provisioned until CPU%% sits within [60,80]")
}
