package plasma

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/apps/pagerank"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

// The ablation benchmark isolates a design choice DESIGN.md calls out:
// whether the placement-stability rule (§4.3) is enforced.

// pagerankRun deploys the fig6a-style setup, multilevel-partitioned, under
// an EMR config, returning converged time and migration count.
func pagerankRun(seed int64, cfg emr.Config) (sim.Duration, int) {
	k := sim.New(seed)
	c := cluster.New(k, 8, cluster.M5Large)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	g := graph.GeneratePowerLaw(12000, 10, 2.1, seed)
	parts := graph.PartitionMultilevel(g, 32, seed)
	perm := sim.New(seed*7 + 1).Rand().Perm(32)
	placement := make([]cluster.MachineID, 32)
	for i, p := range perm {
		placement[p] = cluster.MachineID(i % 8)
	}
	app := pagerank.Build(k, rt, pagerank.Config{
		Graph: g, Parts: parts, K: 32,
		PerEdgeCost: 55 * sim.Microsecond, SyncOverhead: 12 * sim.Millisecond,
		HeteroSpread: 0.5, Iterations: 120,
	}, placement)
	mgr := emr.New(k, c, rt, prof, epl.MustParse(pagerank.PolicySrc), cfg)
	mgr.Start()
	app.Start(k)
	for !app.Done && k.Step() {
	}
	return app.ConvergedTime(), mgr.Stats.ExecutedMigrations
}

// BenchmarkAblationStability compares the §4.3 placement-stability rule
// (min residence = one elasticity period) against no stability: without
// it, actors may thrash between servers every period.
func BenchmarkAblationStability(b *testing.B) {
	cases := []struct {
		name string
		res  sim.Duration
	}{
		{"minResidence=period", 0}, // 0 defaults to the period
		{"minResidence=1ms", sim.Millisecond},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var sumMS, sumMigs float64
			for i := 0; i < b.N; i++ {
				d, migs := pagerankRun(int64(i+1),
					emr.Config{Period: 500 * sim.Millisecond, MinResidence: c.res})
				sumMS += float64(d) / float64(sim.Millisecond)
				sumMigs += float64(migs)
			}
			b.ReportMetric(sumMS/float64(b.N), "converged_ms")
			b.ReportMetric(sumMigs/float64(b.N), "migrations")
		})
	}
}
