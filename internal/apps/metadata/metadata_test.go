package metadata

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

// reqSize is the bytes of one client open request.
const reqSize = 128

func TestPolicyChecksAgainstSchema(t *testing.T) {
	pol := epl.MustParse(PolicySrc)
	if _, err := epl.Check(pol, Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestOpenTouchesFolderAndFile(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	app := Build(k, rt, 0, 2, 3)
	k.RunUntilIdle()
	cl := actor.NewClient(rt, 1)
	var lat sim.Duration
	cl.Request(app.Folders[0], "open", nil, reqSize, func(l sim.Duration, _ interface{}) { lat = l })
	k.RunUntilIdle()
	// Latency must cover folder open + file read.
	if lat < openCost+readCost {
		t.Fatalf("latency %v below processing cost", lat)
	}
}

func TestFolderPublishesFilesProp(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 1, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	app := Build(k, rt, 0, 1, 4)
	k.RunUntilIdle()
	info, _ := rt.Lookup(app.Folders[0])
	refs := info.Props["files"]
	if len(refs) != 4 {
		t.Fatalf("files prop = %d refs, want 4", len(refs))
	}
}

func TestRoundRobinSpreadsAcrossFiles(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 1, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	app := Build(k, rt, 0, 1, 4)
	k.RunUntilIdle()
	prof.Reset()
	cl := actor.NewClient(rt, 0)
	for i := 0; i < 8; i++ {
		cl.Request(app.Folders[0], "open", nil, reqSize, nil)
	}
	k.RunUntilIdle()
	snap := prof.Snapshot(nil)
	for _, fr := range app.Files[0] {
		ai := snap.Actor(fr)
		got := int64(0)
		for _, cs := range ai.Calls {
			if cs.Method == "read" {
				got += cs.Count
			}
		}
		if got != 2 {
			t.Fatalf("file %v got %d reads, want 2", fr, got)
		}
	}
}

func TestHotWeights(t *testing.T) {
	w := HotWeights(4, 0.5)
	if w[0] != 0.5 {
		t.Fatalf("hot weight = %v", w[0])
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum %v", sum)
	}
}

// End-to-end: under the §3.3 rule, the hot folder gets reserved onto the
// spare server and its files follow.
func TestElasticityMovesHotFolderWithFiles(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	app := Build(k, rt, 0, 4, 4)
	k.RunUntilIdle()

	pol := epl.MustParse(PolicySrc)
	mgr := emr.New(k, c, rt, prof, pol, emr.Config{Period: 2 * sim.Second, MinResidence: sim.Millisecond})
	mgr.Start()

	pick := workload.SkewedPicker(k, HotWeights(4, 0.5))
	for i := 0; i < 16; i++ {
		cl := &workload.ClosedLoop{
			K:      k,
			Client: actor.NewClient(rt, 1),
			Think:  5 * sim.Millisecond,
			Next: func() workload.Request {
				return workload.Request{Target: app.Folders[pick()], Method: "open", Size: reqSize}
			},
		}
		cl.Start()
	}
	k.Run(sim.Time(20 * sim.Second))

	hotSrv := rt.ServerOf(app.Folders[0])
	if hotSrv != 1 {
		t.Fatalf("hot folder on %d, want reserved server 1", hotSrv)
	}
	moved := 0
	for _, fr := range app.Files[0] {
		if rt.ServerOf(fr) == hotSrv {
			moved++
		}
	}
	if moved != len(app.Files[0]) {
		t.Fatalf("only %d/%d hot files colocated with folder", moved, len(app.Files[0]))
	}
	// Cold folders stay behind.
	for i := 1; i < 4; i++ {
		if rt.ServerOf(app.Folders[i]) != 0 {
			t.Fatalf("cold folder %d moved", i)
		}
	}
}
