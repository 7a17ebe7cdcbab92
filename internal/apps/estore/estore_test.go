package estore

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/apps/workload"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

func TestPolicyChecksAgainstSchema(t *testing.T) {
	pol := epl.MustParse(PolicySrc)
	if _, err := epl.Check(pol, Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraversesRootAndChild(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	app := Build(rt, []cluster.MachineID{0}, 2, 3)
	k.RunUntilIdle()
	var lat sim.Duration
	actor.NewClient(rt, 1).Request(app.Roots[0], "read", nil, reqSize, func(l sim.Duration, _ interface{}) { lat = l })
	k.RunUntilIdle()
	if lat < rootCost+childCost {
		t.Fatalf("latency %v below root+child cost", lat)
	}
}

func TestChildrenStartColocatedWithRoot(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	app := Build(rt, []cluster.MachineID{0, 1, 2, 3}, 8, 4)
	k.RunUntilIdle()
	for i, root := range app.Roots {
		srv := rt.ServerOf(root)
		for _, ch := range app.Children[i] {
			if rt.ServerOf(ch) != srv {
				t.Fatalf("child of root %d not colocated at build", i)
			}
		}
	}
}

func TestGeometricWeights(t *testing.T) {
	w := workload.GeometricWeights(5, 0.35)
	if w[0] < 0.349 || w[0] > 0.351 {
		t.Fatalf("first weight %v, want 0.35", w[0])
	}
	if w[1] <= w[2] {
		t.Fatal("weights not decreasing")
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("sum %v", sum)
	}
}

// One period moves the topFrac most-requested roots on servers over
// highWater, each with its children, and later periods keep every family
// together.
func TestInAppMovesHotRootWithChildren(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 3, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	app := Build(rt, []cluster.MachineID{0, 1}, 20, 2)
	k.RunUntilIdle()

	pick := workload.SkewedPicker(k, workload.GeometricWeights(20, 0.8))
	for i := 0; i < 12; i++ {
		cl := &workload.ClosedLoop{
			K: k, Client: actor.NewClient(rt, 2), Think: sim.Millisecond,
			Next: func() workload.Request {
				return workload.Request{Target: app.Roots[pick()], Method: "read", Size: reqSize}
			},
		}
		cl.Start()
	}
	mgr := &InApp{RT: rt, App: app}
	k.Run(sim.Time(2 * sim.Second))
	mgr.Tick(prof.Snapshot(nil))
	prof.Reset()
	// topFrac of 20 roots is 2 families of 1 root + 2 children each.
	if want := int(20*topFrac) * 3; mgr.Migrations != want {
		t.Fatalf("one hot period made %d migrations, want %d (topFrac of the roots, with children)", mgr.Migrations, want)
	}
	for at := 4 * sim.Second; at <= 12*sim.Second; at += 2 * sim.Second {
		k.Run(sim.Time(at))
		mgr.Tick(prof.Snapshot(nil))
		prof.Reset()
	}
	// Whatever moved, every root must still be colocated with its children.
	k.Run(sim.Time(14 * sim.Second))
	for i, root := range app.Roots {
		srv := rt.ServerOf(root)
		for _, ch := range app.Children[i] {
			if rt.ServerOf(ch) != srv {
				t.Fatalf("in-app migration separated root %d from a child", i)
			}
		}
	}
}

func TestPlasmaRulesKeepFamiliesTogether(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 3, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	app := Build(rt, []cluster.MachineID{0, 1}, 4, 2)
	k.RunUntilIdle()

	mgr := emr.New(k, c, rt, prof, epl.MustParse(PolicySrc),
		emr.Config{Period: 2 * sim.Second, MinResidence: sim.Millisecond})
	mgr.Start()

	pick := workload.SkewedPicker(k, workload.GeometricWeights(4, 0.8))
	for i := 0; i < 12; i++ {
		cl := &workload.ClosedLoop{
			K: k, Client: actor.NewClient(rt, 2), Think: sim.Millisecond,
			Next: func() workload.Request {
				return workload.Request{Target: app.Roots[pick()], Method: "read", Size: reqSize}
			},
		}
		cl.Start()
	}
	k.Run(sim.Time(20 * sim.Second))

	if mgr.Stats.ExecutedMigrations == 0 {
		t.Fatal("PLASMA never migrated")
	}
	for i, root := range app.Roots {
		srv := rt.ServerOf(root)
		for _, ch := range app.Children[i] {
			if rt.ServerOf(ch) != srv {
				t.Fatalf("root %d separated from child (root on %d, child on %d)",
					i, srv, rt.ServerOf(ch))
			}
		}
	}
}
