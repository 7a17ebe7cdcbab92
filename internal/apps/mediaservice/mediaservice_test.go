package mediaservice

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

// The bytes of one client watch and one client review request.
const (
	watchReqSize  = 512
	reviewReqSize = 2 << 10
)

func env(machines int) (*sim.Kernel, *cluster.Cluster, *actor.Runtime, *profile.Profiler) {
	k := sim.New(1)
	c := cluster.New(k, machines, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	return k, c, rt, prof
}

func TestPolicyChecksAgainstSchema(t *testing.T) {
	pol := epl.MustParse(PolicySrc)
	if _, err := epl.Check(pol, Schema()); err != nil {
		t.Fatal(err)
	}
	if len(pol.Rules) != 6 {
		t.Fatalf("rules = %d, want the paper's 6", len(pol.Rules))
	}
}

func TestWatchFlow(t *testing.T) {
	k, _, rt, prof := env(4)
	app := Build(k, rt, []cluster.MachineID{0, 1, 2, 3}, 4)
	_, fe := app.AddClient()
	k.RunUntilIdle()
	prof.Reset()
	var lat sim.Duration
	actor.NewClient(rt, 0).Request(fe, "watch", nil, watchReqSize, func(l sim.Duration, _ interface{}) { lat = l })
	k.RunUntilIdle()
	if lat < frontCost+streamCost {
		t.Fatalf("watch latency %v below pipeline cost", lat)
	}
	// The user's UserInfo must have received a track call.
	snap := prof.Snapshot(nil)
	tracked := false
	for _, ai := range snap.Actors {
		if ai.Type == "UserInfo" {
			for _, cs := range ai.Calls {
				if cs.Method == "track" && cs.Count > 0 {
					tracked = true
				}
			}
		}
	}
	if !tracked {
		t.Fatal("watch did not track history on UserInfo")
	}
}

func TestReviewFlow(t *testing.T) {
	k, _, rt, prof := env(4)
	app := Build(k, rt, []cluster.MachineID{0, 1, 2, 3}, 4)
	_, fe := app.AddClient()
	k.RunUntilIdle()
	prof.Reset()
	var lat sim.Duration
	actor.NewClient(rt, 0).Request(fe, "review", nil, reviewReqSize, func(l sim.Duration, _ interface{}) { lat = l })
	k.RunUntilIdle()
	if lat < frontCost+editCost+checkCost {
		t.Fatalf("review latency %v below pipeline cost", lat)
	}
	snap := prof.Snapshot(nil)
	var updates, publishes int64
	for _, ai := range snap.Actors {
		for _, cs := range ai.Calls {
			switch {
			case ai.Type == "UserReview" && cs.Method == "update":
				updates += cs.Count
			case ai.Type == "MovieReview" && cs.Method == "publish":
				publishes += cs.Count
			}
		}
	}
	if updates != 1 || publishes != 1 {
		t.Fatalf("updates=%d publishes=%d, want 1,1", updates, publishes)
	}
}

func TestClientPairingSharesActors(t *testing.T) {
	k, _, rt, _ := env(2)
	app := Build(k, rt, []cluster.MachineID{0, 1}, 2)
	_, fe0 := app.AddClient()
	_, fe1 := app.AddClient()
	_, fe2 := app.AddClient()
	if fe0 != fe1 {
		t.Fatal("clients 0 and 1 should share a FrontEnd")
	}
	if fe2 == fe0 {
		t.Fatal("client 2 should get a fresh FrontEnd")
	}
	k.RunUntilIdle()
}

func TestRemoveClientReleasesActors(t *testing.T) {
	k, _, rt, _ := env(2)
	app := Build(k, rt, []cluster.MachineID{0, 1}, 2)
	before := rt.NumActors()
	id0, _ := app.AddClient()
	id1, _ := app.AddClient()
	k.RunUntilIdle()
	app.RemoveClient(id0)
	app.RemoveClient(id1)
	after := rt.NumActors()
	if after != before {
		t.Fatalf("actors leaked: before=%d after=%d", before, after)
	}
}

func TestElasticityPinsAndColocates(t *testing.T) {
	k, c, rt, prof := env(4)
	app := Build(k, rt, []cluster.MachineID{0, 1, 2, 3}, 2)
	_, fe := app.AddClient()
	k.RunUntilIdle()

	mgr := emr.New(k, c, rt, prof, epl.MustParse(PolicySrc),
		emr.Config{Period: 2 * sim.Second, MinResidence: sim.Millisecond})
	mgr.Start()

	cl := actor.NewClient(rt, 0)
	k.Every(50*sim.Millisecond, func() bool {
		cl.Request(fe, "watch", nil, watchReqSize, nil)
		cl.Request(fe, "review", nil, reviewReqSize, nil)
		return k.Now() < sim.Time(10*sim.Second)
	})
	k.Run(sim.Time(12 * sim.Second))

	ca := app.clients[0]
	if !rt.Pinned(ca.video) {
		t.Fatal("VideoStream not pinned")
	}
	if rt.ServerOf(ca.video) != rt.ServerOf(ca.userInfo) {
		t.Fatal("VideoStream and UserInfo not colocated")
	}
	if rt.ServerOf(ca.editor) != rt.ServerOf(ca.userRev) {
		t.Fatal("ReviewEditor and UserReview not colocated")
	}
	for _, mr := range app.MovieReviews {
		if !rt.Pinned(mr) {
			t.Fatal("MovieReview not pinned")
		}
	}
}

func TestActiveActorsCount(t *testing.T) {
	k, _, rt, _ := env(2)
	app := Build(k, rt, []cluster.MachineID{0, 1}, 3)
	if app.ActiveActors() != 6 { // 3 MovieReviews + 3 Catalogs
		t.Fatalf("base actors = %d", app.ActiveActors())
	}
	app.AddClient()
	k.RunUntilIdle()
	if app.ActiveActors() != 6+4+2 {
		t.Fatalf("after one client: %d", app.ActiveActors())
	}
}
