// Quickstart: a minimal PLASMA application — a pool of CPU-heavy workers
// crowded onto one server, with a single balance rule that spreads them.
//
// It demonstrates the whole programming model: write actors against the
// actor runtime, write an elasticity policy in the EPL, hand it to a
// core.World's Manage, and watch the elasticity management runtime migrate
// actors based on live CPU profiles.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// policy is the elasticity behavior, written in PLASMA's EPL: keep every
// server's CPU between 60% and 80% by migrating Worker actors.
const policy = `
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Worker}, cpu);
`

// worker burns ~45 ms of CPU per 100 ms cycle (45% of one core).
func worker() actor.Behavior {
	return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(45 * sim.Millisecond)
		ctx.SendAfter(55*sim.Millisecond, ctx.Self(), "work", nil, 16)
	})
}

func main() {
	// Seed 1, four m1.small servers, no decision tracer.
	world := core.NewWorld(1, 4, cluster.M1Small, nil)
	world.Manage(epl.MustParse(policy), emr.Config{Period: 2 * sim.Second})
	for _, d := range world.Diagnostics {
		fmt.Println(d)
	}

	// Crowd eight workers onto server 0 (~360% demand on one core).
	var workers []actor.Ref
	for i := 0; i < 8; i++ {
		workers = append(workers, world.RT.SpawnOn("Worker", worker(), 0))
	}
	cl := world.Client(1)
	for _, w := range workers {
		cl.Send(w, "work", nil, 16)
	}

	world.M.Start()

	show := func(label string) {
		fmt.Printf("%-8s", label)
		for _, m := range world.C.UpMachines() {
			fmt.Printf("  server%d: %d workers (%.0f%% cpu)", m.ID,
				len(world.RT.ActorsOn(m.ID)), m.CPUPercent())
		}
		fmt.Println()
	}

	show("t=0s")
	// Sample mid-period so the utilization window has content (the
	// profiler resets it at every elasticity tick).
	world.Run(3 * sim.Second)
	for i := 0; i < 5; i++ {
		show(fmt.Sprintf("t=%ds", 3+i*4))
		world.Run(4 * sim.Second)
	}
	fmt.Printf("\nmigrations performed: %d\n", world.M.Stats.ExecutedMigrations)
	fmt.Println("PLASMA balanced the workers across the fleet using one declarative rule.")
}
