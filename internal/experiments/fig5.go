package experiments

import (
	"plasma/internal/apps/metadata"
	"plasma/internal/apps/workload"
	"plasma/internal/baseline"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// fig5 reproduces §5.3: the Metadata Server under three setups — the §3.3
// reserve+colocate rule (res-col-rule), an application-agnostic default
// rule that migrates heavy actors to an idle server (def-rule), and no
// elasticity (no-rule). 4 folders × 8 files on an m1.small, 16 clients,
// one folder taking 50% of requests; the elastic setups may use one extra
// server.
//
// Paper: res-col-rule reduces latency by ~40%; def-rule shows no visible
// benefit because folder accesses are forwarded to files left behind.
func fig5(cfg Config, r *Result) {
	r.Header = []string{"Setup", "Latency before", "Latency after", "Change"}

	duration := 100 * sim.Second
	period := 30 * sim.Second
	clients := 16
	folders, filesPer := 4, 8

	arm := func(mode string) *workload.Recorder {
		var app *metadata.App
		rec := workload.NewRecorder(5 * sim.Second)
		sc := scenario{
			machines: 2, inst: cluster.M1Small, // server 0 + one spare
			build: func(w *core.World) { app = metadata.Build(w.K, w.RT, 0, folders, filesPer) },
			wire:  true,
			load: func(w *core.World) {
				pick := workload.SkewedPicker(w.K, metadata.HotWeights(folders, 0.5))
				for i := 0; i < clients; i++ {
					loop := &workload.ClosedLoop{
						K:      w.K,
						Client: w.Client(1), // clients on the second machine
						Think:  50 * sim.Millisecond,
						Rec:    rec,
						Next: func() workload.Request {
							return workload.Request{Target: app.Folders[pick()], Method: "open", Size: 128}
						},
					}
					loop.Start()
				}
			},
			horizon: duration,
		}
		switch mode {
		case "res-col-rule":
			sc.policy, sc.emr = metadata.PolicySrc, emr.Config{Period: period}
		case "def-rule":
			sc.emr.Period = period
			sc.baseline = func(w *core.World) func(*epl.Snapshot) {
				return (&baseline.HeavyMigrator{RT: w.RT}).Tick
			}
		}
		run(cfg, cfg.Seed, sc)
		return rec
	}

	var after = map[string]float64{}
	for _, mode := range []string{"res-col-rule", "def-rule", "no-rule"} {
		series := arm(mode).Series()
		// "Before" is the first fifth (pre-elasticity), "after" the last
		// third (post-migration steady state).
		n := series.Len()
		var before float64
		if n > 0 {
			cnt := n / 5
			if cnt == 0 {
				cnt = 1
			}
			for _, y := range series.Y[:cnt] {
				before += y
			}
			before /= float64(cnt)
		}
		tail := series.TailMeanY(0.34)
		after[mode] = tail
		change := pct((tail - before) / before * 100)
		r.addRow(mode, ms(before), ms(tail), change)
		r.Summary["after_"+mode] = tail
	}
	resCol := after["res-col-rule"]
	noRule := after["no-rule"]
	defRule := after["def-rule"]
	if noRule > 0 {
		r.Summary["rescol_vs_norule_reduction"] = (noRule - resCol) / noRule * 100
		r.Summary["defrule_vs_norule_reduction"] = (noRule - defRule) / noRule * 100
	}
	r.notef("paper: res-col-rule ~40%% below the others; def-rule indistinguishable from no-rule")
}
