package experiments

import (
	"plasma/internal/actor"
	"plasma/internal/apps/metadata"
	"plasma/internal/apps/workload"
	"plasma/internal/baseline"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// Fig5 reproduces §5.3: the Metadata Server under three setups — the §3.3
// reserve+colocate rule (res-col-rule), an application-agnostic default
// rule that migrates heavy actors to an idle server (def-rule), and no
// elasticity (no-rule). 4 folders × 8 files on an m1.small, 16 clients,
// one folder taking 50% of requests; the elastic setups may use one extra
// server.
//
// Paper: res-col-rule reduces latency by ~40%; def-rule shows no visible
// benefit because folder accesses are forwarded to files left behind.
func Fig5(cfg Config) *Result {
	r := newResult("fig5", "Metadata Server: reserve+colocate vs default rule vs none")
	r.Header = []string{"Setup", "Latency before", "Latency after", "Change"}

	duration := 100 * sim.Second
	period := 30 * sim.Second
	clients := 16
	folders, filesPer := 4, 8

	run := func(mode string) *workload.Recorder {
		w := cfg.world(cfg.seed(), 2, cluster.M1Small) // server 0 + one spare
		k, rt := w.K, w.RT
		app := metadata.Build(k, rt, 0, folders, filesPer)
		k.RunUntilIdle()

		switch mode {
		case "res-col-rule":
			w.Manage(epl.MustParse(metadata.PolicySrc), emr.Config{Period: period}).Start()
		case "def-rule":
			h := &baseline.HeavyMigrator{K: k, RT: rt, C: w.C, Prof: w.Prof,
				Period: period, TriggerCPU: 80, MoveCount: 1}
			h.Start()
		}

		rec := workload.NewRecorder(5 * sim.Second)
		pick := workload.SkewedPicker(k, metadata.HotWeights(folders, 0.5))
		for i := 0; i < clients; i++ {
			loop := &workload.ClosedLoop{
				K:      k,
				Client: actor.NewClient(rt, 1), // clients on the second machine
				Think:  50 * sim.Millisecond,
				Rec:    rec,
				Next: func() workload.Request {
					return workload.Request{Target: app.Folders[pick()], Method: "open", Size: 128}
				},
			}
			loop.Start()
		}
		k.Run(sim.Time(duration))
		return rec
	}

	var after = map[string]float64{}
	for _, mode := range []string{"res-col-rule", "def-rule", "no-rule"} {
		rec := run(mode)
		series := rec.Series()
		r.Series[mode] = series
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
	return r
}
