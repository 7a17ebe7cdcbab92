package chatroom

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

func TestPostsFanOutToAllOtherUsers(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 1, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	app := Build(rt, 0, 4)
	// One user posts once: the other 3 receive it (the sender is excluded
	// from the room's fan-out).
	actor.NewClient(rt, 0).Send(app.Users[0], "post", nil, 64)
	k.RunUntilIdle()
	if app.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3", app.Delivered)
	}
}

func TestDrivePostsCompletes(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 1, cluster.M1Medium)
	rt := actor.NewRuntime(k, c)
	app := Build(rt, 0, 8)
	app.DrivePosts(k, 0, 5, sim.Millisecond)
	k.RunUntilIdle()
	// 5 rounds x 8 posters x 7 receivers.
	if app.Delivered != 5*8*7 {
		t.Fatalf("delivered = %d, want %d", app.Delivered, 5*8*7)
	}
}

func TestProfilingOverheadSmall(t *testing.T) {
	run := func(profiled bool) sim.Time {
		k := sim.New(1)
		c := cluster.New(k, 1, cluster.M1Small)
		rt := actor.NewRuntime(k, c)
		if profiled {
			profile.New(k, c, rt)
		}
		app := Build(rt, 0, 16)
		app.DrivePosts(k, 0, 20, sim.Millisecond)
		k.RunUntilIdle()
		return k.Now()
	}
	vanilla, profiled := run(false), run(true)
	overhead := float64(profiled-vanilla) / float64(vanilla)
	if overhead <= 0 {
		t.Fatal("profiling should cost something")
	}
	if overhead > 0.023 {
		t.Fatalf("overhead %.4f exceeds the paper's 2.3%% bound", overhead)
	}
}
