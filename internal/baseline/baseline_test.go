package baseline

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

type env struct {
	k    *sim.Kernel
	rt   *actor.Runtime
	prof *profile.Profiler
}

func newEnv(machines int) *env {
	k := sim.New(1)
	typ := cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 4096, NetMbps: 1000, SpeedFac: 1}
	c := cluster.New(k, machines, typ)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	return &env{k, rt, prof}
}

// periods advances the kernel one second at a time up to until, closing
// the profiling window at the end of each second and handing it to tick, as
// the period timer of whoever drives the manager does.
func (e *env) periods(until sim.Duration, tick func(*epl.Snapshot)) {
	for at := sim.Second; at <= until; at += sim.Second {
		e.k.Run(sim.Time(at))
		snap := e.prof.Snapshot(nil)
		e.prof.Reset()
		tick(snap)
	}
}

func idle() actor.Behavior {
	return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {})
}

func TestOrleansEqualizesCounts(t *testing.T) {
	e := newEnv(4)
	for i := 0; i < 12; i++ {
		e.rt.SpawnOn("A", idle(), 0)
	}
	o := &Orleans{RT: e.rt}
	e.periods(5*sim.Second, o.Tick)
	for i := 0; i < 4; i++ {
		n := len(e.rt.ActorsOn(cluster.MachineID(i)))
		if n < 2 || n > 4 {
			t.Fatalf("server %d holds %d actors, want ~3", i, n)
		}
	}
	if o.Migrations == 0 {
		t.Fatal("no migrations")
	}
}

func TestOrleansStableWhenEqual(t *testing.T) {
	e := newEnv(2)
	e.rt.SpawnOn("A", idle(), 0)
	e.rt.SpawnOn("A", idle(), 0)
	e.rt.SpawnOn("A", idle(), 1)
	e.rt.SpawnOn("A", idle(), 1)
	o := &Orleans{RT: e.rt}
	e.periods(5*sim.Second, o.Tick)
	if o.Migrations != 0 {
		t.Fatalf("migrations on balanced counts: %d", o.Migrations)
	}
}

func TestOrleansTypeFilter(t *testing.T) {
	e := newEnv(2)
	for i := 0; i < 6; i++ {
		e.rt.SpawnOn("Managed", idle(), 0)
	}
	for i := 0; i < 6; i++ {
		e.rt.SpawnOn("Unmanaged", idle(), 0)
	}
	o := &Orleans{RT: e.rt, Types: map[string]bool{"Managed": true}}
	e.periods(5*sim.Second, o.Tick)
	// Unmanaged actors stay put.
	unmanagedOn0 := 0
	for _, ref := range e.rt.ActorsOn(0) {
		if e.rt.TypeOf(ref) == "Unmanaged" {
			unmanagedOn0++
		}
	}
	if unmanagedOn0 != 6 {
		t.Fatalf("unmanaged actors moved: %d left on server 0", unmanagedOn0)
	}
}

// loop is an actor that burns use of CPU per message and messages itself
// again rest later: a steady (use / (use+rest)) share of one core.
func loop(use, rest sim.Duration) actor.Behavior {
	return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(use)
		ctx.SendAfter(rest, ctx.Self(), "w", nil, 8)
	})
}

// One period moves heavyMoves actors off a server over heavyTriggerCPU,
// heaviest first, to the idlest server.
func TestHeavyMigratorMovesHotActor(t *testing.T) {
	e := newEnv(2)
	hot := e.rt.SpawnOn("H", loop(80*sim.Millisecond, 5*sim.Millisecond), 0)
	warm := e.rt.SpawnOn("W", loop(sim.Millisecond, 100*sim.Millisecond), 0)
	cold := e.rt.SpawnOn("C", idle(), 0)
	cl := actor.NewClient(e.rt, 0)
	cl.Send(hot, "w", nil, 8)
	cl.Send(warm, "w", nil, 8)
	h := &HeavyMigrator{RT: e.rt}
	e.periods(sim.Second, h.Tick)
	if h.Migrations != heavyMoves {
		t.Fatalf("one period over the trigger moved %d actors, want heavyMoves = %d", h.Migrations, heavyMoves)
	}
	e.k.Run(sim.Time(1500 * sim.Millisecond))
	if e.rt.ServerOf(hot) != 1 {
		t.Fatalf("hot actor on %d, want idle server 1", e.rt.ServerOf(hot))
	}
	if e.rt.ServerOf(warm) != 0 || e.rt.ServerOf(cold) != 0 {
		t.Fatal("a lighter actor moved")
	}
}

// A server just under heavyTriggerCPU keeps its actors.
func TestHeavyMigratorQuietBelowTrigger(t *testing.T) {
	e := newEnv(2)
	warm := e.rt.SpawnOn("W", loop(70*sim.Millisecond, 30*sim.Millisecond), 0)
	actor.NewClient(e.rt, 0).Send(warm, "w", nil, 8)
	h := &HeavyMigrator{RT: e.rt}
	e.periods(4*sim.Second, h.Tick)
	if h.Migrations != 0 {
		t.Fatalf("migrations below trigger: %d", h.Migrations)
	}
}

func TestFreqColocatorChasesHeaviestEdge(t *testing.T) {
	e := newEnv(3)
	session := e.rt.SpawnOn("Session", idle(), 2)
	other := e.rt.SpawnOn("Session", idle(), 1)
	player := e.rt.SpawnOn("Player", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(sim.Millisecond)
		// Heavy traffic to session, light to other.
		ctx.Send(session, "hb", nil, 16)
		if ctx.Now()%3 == 0 {
			ctx.Send(other, "hb", nil, 16)
		}
		ctx.SendAfter(20*sim.Millisecond, ctx.Self(), "tick", nil, 8)
	}), 0)
	actor.NewClient(e.rt, 0).Send(player, "tick", nil, 8)
	f := &FreqColocator{RT: e.rt}
	e.periods(3*sim.Second, f.Tick)
	if e.rt.ServerOf(player) != 2 {
		t.Fatalf("player on %d, want chattiest peer's server 2", e.rt.ServerOf(player))
	}
}

// A caller moves once a window carries freqThreshold messages to its peer,
// and not at one fewer.
func TestFreqColocatorRespectsThreshold(t *testing.T) {
	for _, n := range []int{freqThreshold - 1, freqThreshold} {
		e := newEnv(2)
		callee := e.rt.SpawnOn("B", idle(), 1)
		caller := e.rt.SpawnOn("A", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Send(callee, "rare", nil, 8)
		}), 0)
		cl := actor.NewClient(e.rt, 0)
		for i := 0; i < n; i++ {
			cl.Send(caller, "go", nil, 8)
		}
		f := &FreqColocator{RT: e.rt}
		e.periods(sim.Second, f.Tick)
		if want := n / freqThreshold; f.Migrations != want {
			t.Fatalf("%d messages in the window: %d migrations, want %d", n, f.Migrations, want)
		}
	}
}
