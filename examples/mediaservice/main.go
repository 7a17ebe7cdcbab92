// Media Service example: the §5.6 scenario — a microservice of eight actor
// types under a bell-shaped client population, with PLASMA's six rules
// growing and shrinking the fleet as clients come and go.
//
// Run: go run ./examples/mediaservice
package main

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/workload"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

func main() {
	fmt.Println("Media Service under PLASMA's six elasticity rules:")
	fmt.Print(mediaservice.PolicySrc)
	fmt.Println()

	w := core.NewWorld(1, 4, cluster.M1Small, nil)
	k, c, rt := w.K, w.C, w.RT
	c.SetMaxSize(65)
	app := mediaservice.Build(k, rt, []cluster.MachineID{0, 1, 2, 3}, 8)
	k.RunUntilIdle()

	mgr := w.Manage(epl.MustParse(mediaservice.PolicySrc),
		emr.Config{Period: 20 * sim.Second, ScaleOut: true, ScaleIn: true,
			MinServers: 4, InstanceType: cluster.M1Small})
	mgr.Start()

	rec := workload.NewRecorder(20 * sim.Second)
	const clients = 32
	var loops []*workload.ClosedLoop
	// Clients join over the first 80 s...
	for i := 0; i < clients; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(2500*sim.Millisecond), func() {
			id, fe := app.AddClient()
			watch := true
			loop := &workload.ClosedLoop{
				K: k, Client: actor.NewClient(rt, 0), Think: 200 * sim.Millisecond,
				Rec: rec,
				Next: func() workload.Request {
					watch = !watch
					if watch {
						return workload.Request{Target: fe, Method: "watch", Size: 512}
					}
					return workload.Request{Target: fe, Method: "review", Size: 2 << 10}
				},
			}
			loops = append(loops, loop)
			loop.Start()
			// ...and leave after 150 s each.
			k.After(150*sim.Second, func() {
				loop.Stop()
				app.RemoveClient(id)
			})
		})
	}

	for t := 40; t <= 280; t += 40 {
		k.Run(sim.Time(t) * sim.Time(sim.Second))
		fmt.Printf("t=%3ds  servers=%2d  actors=%3d  migrations=%d  scale-out=%d  scale-in=%d\n",
			t, c.UpCount(), app.ActiveActors(), mgr.Stats.ExecutedMigrations,
			mgr.Stats.ScaleOuts, mgr.Stats.ScaleIns)
	}
	fmt.Printf("\nmean request latency: %.1f ms over %d requests\n",
		rec.Hist.Mean(), rec.Hist.Count())
	fmt.Println("the fleet grew for the client wave and shrank after it left.")
}
