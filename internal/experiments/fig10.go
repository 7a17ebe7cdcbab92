package experiments

import (
	"fmt"
	"math"

	"plasma/internal/actor"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/workload"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

// mediaRequests is one Media Service client's request stream against its
// front end: reviews and watches alternate, review first.
func mediaRequests(fe actor.Ref) func() workload.Request {
	watch := true
	return func() workload.Request {
		watch = !watch
		if watch {
			return workload.Request{Target: fe, Method: "watch", Size: 512}
		}
		return workload.Request{Target: fe, Method: "review", Size: 2 << 10}
	}
}

// Fig10 reproduces §5.6: the Media Service under a bell-shaped client
// population. Clients join over the first phase following a normal
// distribution, stay, then leave following another normal distribution.
// The service starts on 4 m1.small instances and may scale to 65. One run
// per elasticity period (60 s, 120 s, 180 s by default).
//
// Paper: a smaller elasticity period yields lower latency and faster
// resource allocation/reclaim.
func Fig10(cfg Config) *Result {
	r := newResult("fig10", "Media Service: latency and fleet size per elasticity period")
	r.Header = []string{"Period", "Mean latency", "Peak servers", "Final servers"}

	clients := 128
	joinMu, joinSigma := 2*sim.Minute, 90*sim.Second
	stay := 4 * sim.Minute
	leaveMu, leaveSigma := 19*sim.Minute, 90*sim.Second
	total := 26 * sim.Minute
	periods := []sim.Duration{60 * sim.Second, 120 * sim.Second, 180 * sim.Second}
	if !cfg.Full {
		clients = 48
		joinMu, joinSigma = 100*sim.Second, 40*sim.Second
		stay = 100 * sim.Second
		leaveMu, leaveSigma = 380*sim.Second, 40*sim.Second
		total = 520 * sim.Second
		periods = []sim.Duration{20 * sim.Second, 40 * sim.Second, 60 * sim.Second}
	}

	meanLat := map[sim.Duration]float64{}
	for _, period := range periods {
		var app *mediaservice.App
		rec := workload.NewRecorder(20 * sim.Second)
		servers := &metrics.Series{Name: "servers"}
		out := run(cfg, cfg.seed(), scenario{
			machines: 4, inst: cluster.M1Small,
			build: func(w *core.World) {
				w.C.SetMaxSize(65)
				app = mediaservice.Build(w.K, w.RT, []cluster.MachineID{0, 1, 2, 3}, 8)
			},
			wire:   true,
			policy: mediaservice.PolicySrc,
			emr: emr.Config{Period: period, ScaleOut: true, ScaleIn: true,
				MinServers: 4, InstanceType: cluster.M1Small},
			load: func(w *core.World) {
				k := w.K
				k.Every(10*sim.Second, func() bool {
					servers.Add(k.Now().Seconds(), float64(w.C.UpCount()))
					return k.Now() < sim.Time(total)
				})

				// Schedule joins and leaves.
				norm := func(mu, sigma sim.Duration) sim.Time {
					x := k.Rand().NormFloat64()*float64(sigma) + float64(mu)
					if x < 0 {
						x = 0
					}
					return sim.Time(x)
				}
				for i := 0; i < clients; i++ {
					joinAt := norm(joinMu, joinSigma)
					leaveAt := norm(leaveMu, leaveSigma)
					if sim.Duration(leaveAt) < sim.Duration(joinAt)+stay {
						leaveAt = joinAt + sim.Time(stay)
					}
					k.At(joinAt, func() {
						id, fe := app.AddClient()
						loop := &workload.ClosedLoop{
							K:      k,
							Client: w.Client(0),
							Think:  200 * sim.Millisecond,
							Rec:    rec,
							Next:   mediaRequests(fe),
						}
						loop.Start()
						k.At(leaveAt, func() {
							loop.Stop()
							app.RemoveClient(id)
						})
					})
				}
			},
			horizon: total,
		})

		key := fmt.Sprintf("%ds", int64(period/sim.Second))
		lat := rec.Series()
		r.Series["latency-"+key] = lat
		r.Series["servers-"+key] = servers
		mean := lat.MeanY()
		meanLat[period] = mean
		peak := servers.MaxY()
		final := float64(out.C.UpCount())
		r.addRow(key, ms(mean), fmt.Sprintf("%.0f", peak), fmt.Sprintf("%.0f", final))
		r.Summary["mean_latency_ms_"+key] = mean
		r.Summary["peak_servers_"+key] = peak
		r.Summary["final_servers_"+key] = final
	}

	shortest, longest := periods[0], periods[len(periods)-1]
	if !math.IsNaN(meanLat[shortest]) && meanLat[longest] > 0 {
		r.Summary["short_vs_long_latency_ratio"] = meanLat[shortest] / meanLat[longest]
	}
	r.notef("paper: the 60s period yields the best latency and the fastest allocation/reclaim")
	return r
}
