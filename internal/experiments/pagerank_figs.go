package experiments

import (
	"fmt"

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

// prSetup sizes the PageRank experiments.
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

func pagerankSetup(cfg Config) prSetup {
	if cfg.Full {
		return prSetup{vertices: 24000, avgDeg: 10, workers: 32, iterations: 200, perEdge: 55 * sim.Microsecond, syncOver: 24 * sim.Millisecond, period: sim.Second, boot: 10 * sim.Second}
	}
	return prSetup{vertices: 12000, avgDeg: 10, workers: 32, iterations: 150, perEdge: 55 * sim.Microsecond, syncOver: 12 * sim.Millisecond, period: 500 * sim.Millisecond, boot: 4 * sim.Second}
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
// (setup, seed) and nothing writes to them, so an id builds one per seed and
// hands it to every arm it runs at that seed.
type prInput struct {
	g     *graph.Graph
	parts []int
}

func pagerankInput(su prSetup, seed int64) prInput {
	g := graph.GeneratePowerLaw(su.vertices, su.avgDeg, 2.1, seed)
	return prInput{g: g, parts: graph.PartitionMultilevel(g, su.workers, seed)}
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

// Fig6a reproduces §5.4 "dynamic workload balance": 32 workers on 8
// m5.large VMs (16 vCPUs), PLASMA's balance rule vs Orleans' equal-count
// management (which takes no action: counts are already equal). Averaged
// over 3 seeds. Paper: PLASMA converges ~24% faster.
func Fig6a(cfg Config) *Result {
	r := newResult("fig6a", "PageRank converged computation time: PLASMA vs Orleans (16 vCPU)")
	r.Header = []string{"Elasticity", "Converged iteration time", "Runs"}
	su := pagerankSetup(cfg)
	seeds := []int64{cfg.seed(), cfg.seed() + 1, cfg.seed() + 2}
	inputs := make([]prInput, len(seeds))
	for i, seed := range seeds {
		inputs[i] = pagerankInput(su, seed)
	}

	arm := func(mode string, seed int64, in prInput) sim.Duration {
		a := pagerankArm(su, in, 8, randomPlacement(seed*7+1, su.workers, 8), 20*sim.Minute)
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
		for i, seed := range seeds {
			sum += arm(mode, seed, inputs[i])
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
	return r
}

// Fig6b reproduces §5.4 "dynamic resource allocation" (average view):
// PLASMA grows from 1 server under the balance rule vs conservative
// provisioning with one worker per vCPU (16 m5.large = 32 vCPUs). Paper:
// PLASMA reaches nearly identical performance with 12 servers (25% fewer
// resources).
func Fig6b(cfg Config) *Result {
	r := newResult("fig6b", "PageRank dynamic allocation: PLASMA vs conservative provisioning")
	r.Header = []string{"Setup", "Converged iteration time", "Servers used"}
	su := pagerankSetup(cfg)
	su.iterations *= 5 // give scale-out time to converge
	in := pagerankInput(su, cfg.seed())

	// Conservative: 16 servers, 2 workers (one per vCPU) each.
	placement := make([]cluster.MachineID, su.workers)
	for i := range placement {
		placement[i] = cluster.MachineID(i / 2)
	}
	conSrv := 16
	con := pagerankArm(su, in, conSrv, placement, 30*sim.Minute)
	run(cfg, cfg.seed(), con.scenario)
	conservative := con.app.ConvergedTime()
	r.addRow("conservative (32 vCPU)", conservative.String(), fmt.Sprintf("%d", conSrv))
	r.Summary["converged_ms_conservative"] = float64(conservative) / float64(sim.Millisecond)

	// PLASMA: everything starts on one server; scale-out provisions more.
	dyn := pagerankArm(su, in, 1, make([]cluster.MachineID, su.workers), 30*sim.Minute)
	dyn.policy, dyn.emr = pagerank.PolicySrc, emr.Config{Period: su.period, ScaleOut: true, InstanceType: su.instance()}
	out := run(cfg, cfg.seed(), dyn.scenario)
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
	return r
}

// Fig7a reproduces the Mizan comparison: normalized per-iteration times for
// PLASMA and a Mizan-style vertex migrator, each with and without
// elasticity. Mizan equalizes per-worker partitions but cannot move actors
// between servers, so per-server skew from random placement persists.
// Paper: Mizan's elasticity gains <=3%; PLASMA's ~24%.
func Fig7a(cfg Config) *Result {
	r := newResult("fig7a", "PageRank per-iteration time: PLASMA vs Mizan, with/without elasticity")
	r.Header = []string{"System", "Mean normalized iteration time (tail)", "Gain vs no elasticity"}
	su := pagerankSetup(cfg)
	// The paper's figure spans 19 iterations; both systems are measured
	// over that horizon (Mizan migrates incrementally per superstep and
	// has not converged by then — one reason its measured gain is small).
	su.iterations = 19
	su.period = su.period / 2
	in := pagerankInput(su, cfg.seed())

	arm := func(system string, elastic bool) *metrics.Series {
		su := su
		if system == "mizan" {
			// Mizan's framework is ~4x slower per edge in the paper's runs.
			su.perEdge *= 4
		}
		a := pagerankArm(su, in, 8, randomPlacement(cfg.seed()*7+1, su.workers, 8), 60*sim.Minute)
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
		run(cfg, cfg.seed(), a.scenario)
		s := &metrics.Series{Name: system}
		for i, d := range a.app.IterationTimes {
			s.Add(float64(i+1), float64(d))
		}
		return s
	}

	gains := map[string]float64{}
	for _, system := range []string{"plasma", "mizan"} {
		base := arm(system, false)
		elas := arm(system, true)
		norm := base.Y[0] // normalize to the first no-elasticity iteration
		baseNorm := &metrics.Series{Name: system + "-vanilla"}
		elasNorm := &metrics.Series{Name: system + "-elastic"}
		for i := range base.Y {
			baseNorm.Add(base.X[i], base.Y[i]/norm)
		}
		for i := range elas.Y {
			elasNorm.Add(elas.X[i], elas.Y[i]/norm)
		}
		r.Series[system+"-vanilla"] = baseNorm
		r.Series[system+"-elastic"] = elasNorm
		bTail := baseNorm.TailMeanY(0.3)
		eTail := elasNorm.TailMeanY(0.3)
		gain := (bTail - eTail) / bTail * 100
		gains[system] = gain
		r.addRow(system, fmt.Sprintf("%.3f -> %.3f", bTail, eTail), pct(gain))
		r.Summary["gain_pct_"+system] = gain
	}
	r.notef("paper: Mizan elasticity improves iterations by <=3%%, PLASMA by up to 24%%; measured mizan %.1f%%, plasma %.1f%%",
		gains["mizan"], gains["plasma"])
	return r
}

// Fig7bc reproduces the Fig. 7b/7c traces from one elastic Fig6a run:
// per-server CPU% and worker counts at each redistribution (elasticity
// period).
func Fig7bc(cfg Config) *Result {
	r := newResult("fig7bc", "PageRank per-server CPU% and worker distribution over redistributions")
	su := pagerankSetup(cfg)
	a := pagerankArm(su, pagerankInput(su, cfg.seed()), 8, randomPlacement(cfg.seed()*7+1, su.workers, 8), 20*sim.Minute)
	a.policy, a.emr = pagerank.PolicySrc, emr.Config{Period: su.period}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("node%d", i+1)
		r.Series["cpu-"+id] = &metrics.Series{Name: "cpu-" + id}
		r.Series["actors-"+id] = &metrics.Series{Name: "actors-" + id}
	}
	a.probe = func(w *core.World, tick int, snap *epl.Snapshot) {
		counts := map[cluster.MachineID]int{}
		for _, worker := range a.app.Workers {
			counts[w.RT.ServerOf(worker)]++
		}
		for i := 0; i < 8; i++ {
			id := cluster.MachineID(i)
			name := fmt.Sprintf("node%d", i+1)
			if s := snap.Server(id); s != nil {
				r.Series["cpu-"+name].Add(float64(tick), s.CPUPerc)
			}
			r.Series["actors-"+name].Add(float64(tick), float64(counts[id]))
		}
	}
	out := run(cfg, cfg.seed(), a.scenario)

	// Spread of CPU% across servers, first vs last redistribution.
	spread := func(tick int) float64 {
		var vals []float64
		for i := 0; i < 8; i++ {
			s := r.Series[fmt.Sprintf("cpu-node%d", i+1)]
			if tick < s.Len() {
				vals = append(vals, s.Y[tick])
			}
		}
		return metrics.Imbalance(vals)
	}
	last := r.Series["cpu-node1"].Len() - 1
	if last >= 1 {
		r.Summary["cpu_imbalance_first"] = spread(0)
		r.Summary["cpu_imbalance_last"] = spread(last)
		r.Summary["redistributions"] = float64(last + 1)
	}
	r.Summary["migrations"] = float64(out.M.Stats.ExecutedMigrations)
	r.notef("paper: CPU%% of servers converges into the [60,80] band as workers are re-located")
	return r
}

// Fig8 reproduces the dynamic-allocation traces: iteration times,
// per-server CPU%, and worker distribution as PLASMA provisions servers
// from 1 toward the bound-satisfying fleet.
func Fig8(cfg Config) *Result {
	r := newResult("fig8", "PageRank dynamic resource allocation traces")
	su := pagerankSetup(cfg)
	su.iterations *= 5

	a := pagerankArm(su, pagerankInput(su, cfg.seed()), 1, make([]cluster.MachineID, su.workers), 40*sim.Minute)
	a.policy, a.emr = pagerank.PolicySrc, emr.Config{Period: su.period, ScaleOut: true, InstanceType: su.instance()}

	serverSeries := &metrics.Series{Name: "servers"}
	a.probe = func(w *core.World, tick int, snap *epl.Snapshot) {
		serverSeries.Add(float64(tick), float64(w.C.UpCount()))
	}
	out := run(cfg, cfg.seed(), a.scenario)
	iterSeries := &metrics.Series{Name: "iteration-time"}
	for i, d := range a.app.IterationTimes {
		iterSeries.Add(float64(i+1), d.Seconds())
	}

	r.Series["iteration-time"] = iterSeries
	r.Series["servers"] = serverSeries
	if iterSeries.Len() > 2 {
		r.Summary["first_iter_s"] = iterSeries.Y[0]
		r.Summary["final_iter_s"] = iterSeries.TailMeanY(0.2)
		r.Summary["speedup"] = iterSeries.Y[0] / iterSeries.TailMeanY(0.2)
	}
	r.Summary["final_servers"] = float64(out.C.UpCount())
	r.Summary["scaleouts"] = float64(out.M.Stats.ScaleOuts)
	r.notef("paper: performance improves round by round as servers are provisioned until CPU%% sits within [60,80]")
	return r
}
