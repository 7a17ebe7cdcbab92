package halo

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

func env(machines int) (*sim.Kernel, *cluster.Cluster, *actor.Runtime, *profile.Profiler) {
	k := sim.New(1)
	c := cluster.New(k, machines, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	return k, c, rt, prof
}

func ids(n int) []cluster.MachineID {
	out := make([]cluster.MachineID, n)
	for i := range out {
		out[i] = cluster.MachineID(i)
	}
	return out
}

func TestPoliciesCheckAgainstSchema(t *testing.T) {
	for _, src := range []string{InterPolicySrc, RouterPolicySrc, FullPolicySrc} {
		pol := epl.MustParse(src)
		if _, err := epl.Check(pol, Schema()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	k, _, rt, _ := env(4)
	app := Build(k, rt, ids(2), ids(4), 2, 2)
	p := app.Join(0)
	k.RunUntilIdle()
	var lat sim.Duration
	cl := actor.NewClient(rt, 3)
	app.Heartbeat(cl, p, func(l sim.Duration) { lat = l })
	k.RunUntilIdle()
	if lat < routeCost+presenceCost+updateCost {
		t.Fatalf("heartbeat latency %v below pipeline cost", lat)
	}
}

func TestJoinPublishesMembership(t *testing.T) {
	k, _, rt, _ := env(2)
	app := Build(k, rt, ids(1), ids(2), 1, 2)
	p1 := app.Join(0)
	p2 := app.Join(0)
	p3 := app.Join(1)
	k.RunUntilIdle()
	info0, _ := rt.Lookup(app.Sessions[0])
	s0 := info0.Props["players"]
	if len(s0) != 2 || s0[0] != p1 || s0[1] != p2 {
		t.Fatalf("session 0 players = %v", s0)
	}
	info1, _ := rt.Lookup(app.Sessions[1])
	s1 := info1.Props["players"]
	if len(s1) != 1 || s1[0] != p3 {
		t.Fatalf("session 1 players = %v", s1)
	}
}

func TestInterRulePlacesJoinersWithSession(t *testing.T) {
	k, c, rt, prof := env(8)
	app := Build(k, rt, ids(8), ids(8), 8, 8)
	mgr := emr.New(k, c, rt, prof, epl.MustParse(InterPolicySrc),
		emr.Config{Period: 2 * sim.Second, MinResidence: sim.Millisecond})
	mgr.Start()
	for i := 0; i < 16; i++ {
		p := app.Join(i % 8)
		if rt.ServerOf(p) != rt.ServerOf(app.SessionOf(p)) {
			t.Fatalf("player %d not placed with its session at creation", i)
		}
	}
	k.Run(sim.Time(5 * sim.Second))
	// Sessions must be pinned by the rule.
	for _, s := range app.Sessions {
		if !rt.Pinned(s) {
			t.Fatal("session not pinned")
		}
	}
}

func TestColocationRepairsRandomPlacement(t *testing.T) {
	k, c, rt, prof := env(8)
	app := Build(k, rt, ids(8), ids(8), 8, 8)
	// No placement hook yet: join 16 players (random placement)...
	var players []actor.Ref
	for i := 0; i < 16; i++ {
		players = append(players, app.Join(i%8))
	}
	misplaced := 0
	for _, p := range players {
		if rt.ServerOf(p) != rt.ServerOf(app.SessionOf(p)) {
			misplaced++
		}
	}
	if misplaced == 0 {
		t.Skip("random placement happened to colocate everything")
	}
	// ...then start the EMR: the rule must repair placement.
	mgr := emr.New(k, c, rt, prof, epl.MustParse(InterPolicySrc),
		emr.Config{Period: 2 * sim.Second, MinResidence: sim.Millisecond})
	mgr.Start()
	// Drive some heartbeats so the run is realistic.
	cl := actor.NewClient(rt, 0)
	k.Every(100*sim.Millisecond, func() bool {
		for _, p := range players {
			app.Heartbeat(cl, p, nil)
		}
		return k.Now() < sim.Time(8*sim.Second)
	})
	k.Run(sim.Time(10 * sim.Second))
	for _, p := range players {
		if rt.ServerOf(p) != rt.ServerOf(app.SessionOf(p)) {
			t.Fatalf("player %v still away from its session", p)
		}
	}
}

func TestColocatedHeartbeatFasterThanRemote(t *testing.T) {
	k, _, rt, _ := env(3)
	app := Build(k, rt, ids(1), []cluster.MachineID{1}, 1, 1)
	p := app.Join(0)
	k.RunUntilIdle()
	cl := actor.NewClient(rt, 2)

	measure := func() sim.Duration {
		var lat sim.Duration
		app.Heartbeat(cl, p, func(l sim.Duration) { lat = l })
		k.RunUntilIdle()
		return lat
	}
	// Player placed randomly; force it away from its session, then measure.
	rt.Migrate(p, 0, nil)
	k.RunUntilIdle()
	remote := measure()
	rt.Migrate(p, 1, nil)
	k.RunUntilIdle()
	local := measure()
	if local >= remote {
		t.Fatalf("colocated latency %v not below remote %v", local, remote)
	}
}

func TestRouterBalanceSpreadsDecryptLoad(t *testing.T) {
	k, c, rt, prof := env(8)
	// All routers crowded onto 2 of 8 servers; decryption makes them hot.
	app := Build(k, rt, ids(2), ids(8), 8, 8)
	app.Decrypt = true
	for i := 0; i < 16; i++ {
		app.Join(i % 8)
	}
	mgr := emr.New(k, c, rt, prof, epl.MustParse(FullPolicySrc),
		emr.Config{Period: 2 * sim.Second, MinResidence: sim.Millisecond})
	mgr.Start()
	cl := actor.NewClient(rt, 7)
	k.Every(20*sim.Millisecond, func() bool {
		for _, p := range app.Players {
			app.Heartbeat(cl, p, nil)
		}
		return k.Now() < sim.Time(20*sim.Second)
	})
	k.Run(sim.Time(25 * sim.Second))

	srvs := map[cluster.MachineID]int{}
	for _, r := range app.Routers {
		srvs[rt.ServerOf(r)]++
	}
	if len(srvs) < 4 {
		t.Fatalf("routers still crowded on %d servers", len(srvs))
	}
}
