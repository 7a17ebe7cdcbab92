// Halo Presence example: the §5.7 scenario — player heartbeats route
// through Router → Session → Player actors. The §3.3 interaction rule pins
// each Session and co-locates joining Players with it, so heartbeats avoid
// remote hops from the moment a player joins.
//
// Run: go run ./examples/halo
package main

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/apps/halo"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

func run(withRule bool) (mean, p95 float64) {
	w := core.NewWorld(3, 10, cluster.M1Small, nil)
	k, rt := w.K, w.RT
	w.C.BaseLatency = 5 * sim.Millisecond
	srvs := make([]cluster.MachineID, 8)
	for i := range srvs {
		srvs[i] = cluster.MachineID(i)
	}
	app := halo.Build(k, rt, srvs, srvs, 8, 8)
	if withRule {
		w.Manage(epl.MustParse(halo.InterPolicySrc), emr.Config{Period: 25 * sim.Second}).Start()
	}

	var hist metrics.Histogram
	for i := 0; i < 32; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(3*sim.Second), func() {
			p := app.Join(i % 8)
			cl := actor.NewClient(rt, cluster.MachineID(8+i%2))
			k.Every(500*sim.Millisecond, func() bool {
				app.Heartbeat(cl, p, func(lat sim.Duration) {
					hist.Observe(float64(lat) / float64(sim.Millisecond))
				})
				return k.Now() < sim.Time(180*sim.Second)
			})
		})
	}
	k.Run(sim.Time(200 * sim.Second))
	return hist.Mean(), hist.Percentile(95)
}

func main() {
	fmt.Println("Halo Presence Service: heartbeat = client -> Router -> Session -> Player -> client")
	fmt.Printf("interaction rule:%s\n", halo.InterPolicySrc)

	m0, p0 := run(false)
	m1, p1 := run(true)
	fmt.Printf("without rule: mean %.1f ms, p95 %.1f ms (players placed at random)\n", m0, p0)
	fmt.Printf("with rule:    mean %.1f ms, p95 %.1f ms (players created beside their session)\n", m1, p1)
	if p1 < p0 {
		fmt.Printf("the rule cuts tail latency by %.0f%% by avoiding remote session->player hops.\n",
			(p0-p1)/p0*100)
	}
}
