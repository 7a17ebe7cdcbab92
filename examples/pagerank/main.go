// PageRank example: the §5.4 scenario end to end — generate a power-law
// graph, partition it METIS-style, deploy one Worker actor per partition
// over a simulated cluster, and compare convergence with and without
// PLASMA's balance rule.
//
// Run: go run ./examples/pagerank
package main

import (
	"fmt"

	"plasma/internal/apps/pagerank"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/sim"
)

func run(elastic bool) (sim.Duration, int) {
	w := core.NewWorld(7, 8, cluster.M5Large, nil)
	k := w.K

	g := graph.GeneratePowerLaw(12000, 10, 2.1, 7)
	parts := graph.PartitionMultilevel(g, 32, 7)
	placement := make([]cluster.MachineID, 32)
	perm := sim.New(99).Rand().Perm(32)
	for i, p := range perm {
		placement[p] = cluster.MachineID(i % 8)
	}
	app := pagerank.Build(k, w.RT, pagerank.Config{
		Graph: g, Parts: parts, K: 32,
		PerEdgeCost: 55 * sim.Microsecond, SyncOverhead: 12 * sim.Millisecond,
		HeteroSpread: 0.5, Iterations: 120,
	}, placement)

	if elastic {
		w.Manage(epl.MustParse(pagerank.PolicySrc), emr.Config{Period: 500 * sim.Millisecond}).Start()
	}
	app.Start(k)
	for !app.Done && k.Step() {
	}
	migrations := 0
	if w.M != nil {
		migrations = w.M.Stats.ExecutedMigrations
	}
	return app.ConvergedTime(), migrations
}

func main() {
	fmt.Println("distributed PageRank: 12k-vertex power-law graph, 32 partitions, 8 m5.large VMs")
	fmt.Printf("policy:%s\n", pagerank.PolicySrc)

	static, _ := run(false)
	elastic, migs := run(true)
	fmt.Printf("converged iteration time, static placement:  %v\n", static)
	fmt.Printf("converged iteration time, PLASMA balancing:  %v  (%d migrations)\n", elastic, migs)
	if elastic < static {
		fmt.Printf("PLASMA converges %.1f%% faster by relocating heavy partitions.\n",
			(float64(static-elastic))/float64(static)*100)
	}

	// Sanity: the distributed execution models the same algorithm the
	// reference kernel computes.
	g := graph.GeneratePowerLaw(2000, 8, 2.2, 7)
	ranks := graph.PageRank(g, 0.85, 20)
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	fmt.Printf("reference PageRank kernel: %d vertices, rank mass %.6f\n", g.N, sum)
}
