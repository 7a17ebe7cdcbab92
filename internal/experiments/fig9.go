package experiments

import (
	"plasma/internal/apps/estore"
	"plasma/internal/apps/workload"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// Fig9 reproduces §5.5: E-Store with 40 root partitions × 4 children on 4
// m1.small servers (one extra server available), 48 clients with the 35%
// geometric skew. Three managers: PLASMA executing the §3.3 rules, the
// in-app E-Store algorithm, and no elasticity.
//
// Paper: PLASMA E-Store and in-app E-Store track each other closely; both
// clearly beat no elasticity.
func Fig9(cfg Config) *Result {
	r := newResult("fig9", "E-Store latency: PLASMA rules vs in-app elasticity vs none")
	r.Header = []string{"Setup", "Tail latency", "vs no-elasticity"}

	roots, children := 40, 4
	clients := 48
	duration := 220 * sim.Second
	period := 30 * sim.Second
	if !cfg.Full {
		roots, children = 16, 4
		clients = 24
		duration = 120 * sim.Second
		period = 20 * sim.Second
	}

	arm := func(mode string) *workload.Recorder {
		var app *estore.App
		rec := workload.NewRecorder(10 * sim.Second)
		sc := scenario{
			machines: 5, inst: cluster.M1Small, // 4 app servers + 1 extra
			build: func(w *core.World) {
				app = estore.Build(w.RT, []cluster.MachineID{0, 1, 2, 3}, roots, children)
			},
			wire: true,
			load: func(w *core.World) {
				pick := workload.SkewedPicker(w.K, workload.GeometricWeights(roots, 0.35))
				for i := 0; i < clients; i++ {
					loop := &workload.ClosedLoop{
						K:      w.K,
						Client: w.Client(4), // clients use the spare as their site
						Think:  40 * sim.Millisecond,
						Rec:    rec,
						Next: func() workload.Request {
							return workload.Request{Target: app.Roots[pick()], Method: "read", Size: 256}
						},
					}
					loop.Start()
				}
			},
			horizon: duration,
		}
		switch mode {
		case "plasma":
			sc.policy, sc.emr = estore.PolicySrc, emr.Config{Period: period}
		case "in-app":
			sc.emr.Period = period
			sc.baseline = func(w *core.World) func(*epl.Snapshot) {
				return (&estore.InApp{RT: w.RT, App: app}).Tick
			}
		}
		run(cfg, cfg.seed(), sc)
		return rec
	}

	tails := map[string]float64{}
	for _, mode := range []string{"plasma", "in-app", "none"} {
		rec := arm(mode)
		series := rec.Series()
		r.Series[mode] = series
		tails[mode] = series.TailMeanY(0.34)
	}
	for _, mode := range []string{"plasma", "in-app", "none"} {
		delta := (tails[mode] - tails["none"]) / tails["none"] * 100
		r.addRow(mode, ms(tails[mode]), pct(delta))
		r.Summary["tail_ms_"+mode] = tails[mode]
	}
	if tails["in-app"] > 0 {
		r.Summary["plasma_vs_inapp_ratio"] = tails["plasma"] / tails["in-app"]
	}
	r.notef("paper: PLASMA E-Store ~= in-app E-Store, both clearly below no-elasticity")
	return r
}
