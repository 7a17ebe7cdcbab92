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

// fig10Size sizes fig10's client population, its bell (join and leave
// times are normal draws), and the elasticity periods it compares.
type fig10Size struct {
	clients                                             int
	joinMu, joinSigma, stay, leaveMu, leaveSigma, total sim.Duration
	periods                                             []sim.Duration
}

// fig10 reproduces §5.6: the Media Service under a bell-shaped client
// population. Clients join over the first phase following a normal
// distribution, stay, then leave following another normal distribution.
// The service starts on 4 m1.small instances and may scale to 65. One run
// per elasticity period (60 s, 120 s, 180 s by default).
//
// Paper: a smaller elasticity period yields lower latency and faster
// resource allocation/reclaim.
func fig10(cfg Config, su fig10Size, r *Result) {
	r.Header = []string{"Period", "Mean latency", "Peak servers", "Final servers"}

	meanLat := map[sim.Duration]float64{}
	for _, period := range su.periods {
		var app *mediaservice.App
		rec := workload.NewRecorder(20 * sim.Second)
		peak := 0 // the fleet's largest size at a 10 s sample
		out := run(cfg, cfg.Seed, scenario{
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
					peak = max(peak, w.C.UpCount())
					return k.Now() < sim.Time(su.total)
				})

				// Schedule joins and leaves.
				norm := func(mu, sigma sim.Duration) sim.Time {
					x := k.Rand().NormFloat64()*float64(sigma) + float64(mu)
					if x < 0 {
						x = 0
					}
					return sim.Time(x)
				}
				for i := 0; i < su.clients; i++ {
					joinAt := norm(su.joinMu, su.joinSigma)
					leaveAt := norm(su.leaveMu, su.leaveSigma)
					if sim.Duration(leaveAt) < sim.Duration(joinAt)+su.stay {
						leaveAt = joinAt + sim.Time(su.stay)
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
			horizon: su.total,
		})

		key := fmt.Sprintf("%ds", int64(period/sim.Second))
		mean := rec.Series().MeanY()
		meanLat[period] = mean
		final := float64(out.C.UpCount())
		r.addRow(key, ms(mean), fmt.Sprintf("%d", peak), fmt.Sprintf("%.0f", final))
		r.Summary["mean_latency_ms_"+key] = mean
		r.Summary["peak_servers_"+key] = float64(peak)
		r.Summary["final_servers_"+key] = final
	}

	shortest, longest := su.periods[0], su.periods[len(su.periods)-1]
	if !math.IsNaN(meanLat[shortest]) && meanLat[longest] > 0 {
		r.Summary["short_vs_long_latency_ratio"] = meanLat[shortest] / meanLat[longest]
	}
	r.notef("paper: the 60s period yields the best latency and the fastest allocation/reclaim")
}
