package pagerank

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

func smallConfig(k int, iters int) Config {
	g := graph.GeneratePowerLaw(2000, 8, 2.2, 42)
	parts := graph.PartitionMultilevel(g, k, 1)
	return Config{
		Graph: g, Parts: parts, K: k,
		PerEdgeCost: 20 * sim.Microsecond,
		Iterations:  iters,
	}
}

func TestPolicyChecksAgainstSchema(t *testing.T) {
	pol := epl.MustParse(PolicySrc)
	if _, err := epl.Check(pol, Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsComplete(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M5Large)
	rt := actor.NewRuntime(k, c)
	app := Build(k, rt, smallConfig(8, 5), []cluster.MachineID{0, 1, 2, 3})
	app.Start(k)
	k.RunUntilIdle()
	if !app.Done {
		t.Fatal("app did not finish")
	}
	if len(app.IterationTimes) != 5 {
		t.Fatalf("iterations = %d", len(app.IterationTimes))
	}
	for i, d := range app.IterationTimes {
		if d <= 0 {
			t.Fatalf("iteration %d time %v", i, d)
		}
	}
}

func TestPartitionSizesConserved(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M5Large)
	rt := actor.NewRuntime(k, c)
	cfg := smallConfig(4, 1)
	app := Build(k, rt, cfg, []cluster.MachineID{0, 1})
	var verts, edges int64
	for i := range app.Vertices {
		verts += app.Vertices[i]
		edges += app.Edges[i]
	}
	if verts != int64(cfg.Graph.N) {
		t.Fatalf("vertices = %d, want %d", verts, cfg.Graph.N)
	}
	var want int64
	for _, adj := range cfg.Graph.Out {
		want += int64(len(adj))
	}
	if edges != want {
		t.Fatalf("edges = %d, want %d", edges, want)
	}
}

func TestSlowestWorkerBoundsIteration(t *testing.T) {
	// Two workers with very different partition sizes on separate servers:
	// the iteration time must track the big partition.
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M5Large)
	rt := actor.NewRuntime(k, c)
	cfg := Config{K: 2, PerEdgeCost: 100 * sim.Microsecond, Iterations: 2}
	app := Build(k, rt, cfg, []cluster.MachineID{0, 1})
	app.Vertices = []int64{100, 100}
	app.Edges = []int64{10000, 100}
	app.Start(k)
	k.RunUntilIdle()
	// Big partition: 10000 edges * 100µs / SpeedFac 4 = 250 ms minimum.
	if app.IterationTimes[0] < 200*sim.Millisecond {
		t.Fatalf("iteration time %v too fast for slow worker", app.IterationTimes[0])
	}
}

func TestElasticityImprovesConvergedTime(t *testing.T) {
	// Skewed random placement on 4 servers: PLASMA's balance rule should
	// beat the no-elasticity run.
	run := func(elastic bool) sim.Duration {
		k := sim.New(3)
		c := cluster.New(k, 4, cluster.M5Large)
		rt := actor.NewRuntime(k, c)
		prof := profile.New(k, c, rt)
		cfg := smallConfig(16, 300)
		// Skewed placement: most workers start on servers 0-1.
		servers := []cluster.MachineID{0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 2, 2, 3, 3}
		app := Build(k, rt, cfg, servers)
		if elastic {
			mgr := emr.New(k, c, rt, prof, epl.MustParse(PolicySrc),
				emr.Config{Period: 500 * sim.Millisecond, MinResidence: sim.Millisecond})
			mgr.Start()
		}
		app.Start(k)
		k.Run(sim.Time(sim.Minute * 5))
		return app.ConvergedTime()
	}
	plain := run(false)
	elastic := run(true)
	if elastic >= plain {
		t.Fatalf("elastic converged time %v not better than plain %v", elastic, plain)
	}
}

func TestMizanEqualizesWorkersButMovesNoActors(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M5Large)
	rt := actor.NewRuntime(k, c)
	cfg := smallConfig(8, 20)
	servers := []cluster.MachineID{0, 0, 0, 1, 1, 2, 2, 3}
	app := Build(k, rt, cfg, servers)
	before := make([]cluster.MachineID, len(app.Workers))
	for i, w := range app.Workers {
		before[i] = rt.ServerOf(w)
	}
	mz := &Mizan{App: app}
	mz.Attach()
	app.Start(k)
	k.RunUntilIdle()

	if mz.MovedVertices == 0 {
		t.Fatal("mizan moved no vertices")
	}
	// Edge counts should be much closer than the initial skew.
	min, max := app.Edges[0], app.Edges[0]
	for _, e := range app.Edges {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if float64(max) > 1.3*float64(min) {
		t.Fatalf("mizan left workers skewed: min=%d max=%d", min, max)
	}
	for i, w := range app.Workers {
		if rt.ServerOf(w) != before[i] {
			t.Fatal("mizan moved an actor between servers")
		}
	}
}

// One rebalance closes mizanMaxFrac of half the slow/fast edge gap, moves
// vertices in proportion, and stalls the next iteration by
// mizanPausePerVertex per moved vertex.
func TestMizanPausesCostTime(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 1, cluster.M5Large)
	rt := actor.NewRuntime(k, c)
	app := Build(k, rt, Config{K: 2, PerEdgeCost: 10 * sim.Microsecond, Iterations: 10}, []cluster.MachineID{0})
	app.Vertices = []int64{1000, 100}
	app.Edges = []int64{8000, 800}
	mz := &Mizan{App: app}
	mz.rebalance()

	moveEdges := int64(7200 / 2 * mizanMaxFrac) // 360
	moveVerts := moveEdges / 8                  // the slow worker's average degree
	if app.Edges[0] != 8000-moveEdges || app.Edges[1] != 800+moveEdges {
		t.Fatalf("edges %v, want %d moved from the slow worker", app.Edges, moveEdges)
	}
	if mz.MovedVertices != moveVerts || app.Vertices[0]+app.Vertices[1] != 1100 {
		t.Fatalf("moved %d vertices (now %v), want %d and none lost", mz.MovedVertices, app.Vertices, moveVerts)
	}
	if want := sim.Duration(moveVerts) * mizanPausePerVertex; app.extraDelay != want {
		t.Fatalf("pause %v, want %v", app.extraDelay, want)
	}
}

func TestConvergedTimeEmpty(t *testing.T) {
	app := &App{}
	if app.ConvergedTime() != 0 {
		t.Fatal("empty app converged time nonzero")
	}
}
