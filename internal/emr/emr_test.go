package emr

import (
	"slices"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

type env struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	rt   *actor.Runtime
	prof *profile.Profiler
}

func newEnv(seed int64, machines, vcpus int) *env {
	k := sim.New(seed)
	typ := cluster.InstanceType{Name: "t", VCPUs: vcpus, MemMB: 4096, NetMbps: 1000, Boot: 10 * sim.Second, SpeedFac: 1}
	c := cluster.New(k, machines, typ)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	return &env{k: k, c: c, rt: rt, prof: prof}
}

// worker is a behavior that sustains roughly dutyPct% load on one core: it
// burns dutyPct milliseconds of CPU then idles for the rest of a 100 ms
// cycle before sending itself the next work message.
func worker(dutyPct int) actor.Behavior {
	cost := sim.Duration(dutyPct) * sim.Millisecond
	idle := sim.Duration(100-dutyPct) * sim.Millisecond
	return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(cost)
		ctx.SendAfter(idle, ctx.Self(), "work", nil, 16)
	})
}

func startWork(e *env, refs ...actor.Ref) {
	cl := actor.NewClient(e.rt, 0)
	for _, r := range refs {
		cl.Send(r, "work", nil, 16)
	}
}

func TestBalanceMovesLoadOffHotServer(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	// Four workers, each ~45% of one core, all on server 0: ~100% (queued).
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(10 * sim.Second))

	on0 := len(e.rt.ActorsOn(0))
	on1 := len(e.rt.ActorsOn(1))
	if on1 == 0 {
		t.Fatalf("no workers migrated off the hot server (0:%d 1:%d)", on0, on1)
	}
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("no migrations recorded")
	}
	if on0+on1 != 4 {
		t.Fatalf("workers lost: %d + %d", on0, on1)
	}
}

func TestBalanceQuietWhenBalanced(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	a := e.rt.SpawnOn("Worker", worker(35), 0)
	b := e.rt.SpawnOn("Worker", worker(35), 1)
	a2 := e.rt.SpawnOn("Worker", worker(35), 0)
	b2 := e.rt.SpawnOn("Worker", worker(35), 1)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	startWork(e, a, b, a2, b2)
	e.k.Run(sim.Time(10 * sim.Second))
	// Both servers at ~70%: inside the band; nothing should move.
	if m.Stats.ExecutedMigrations != 0 {
		t.Fatalf("migrations on balanced load: %d", m.Stats.ExecutedMigrations)
	}
}

func TestColocateBringsPairTogether(t *testing.T) {
	e := newEnv(1, 2, 2)
	pol := epl.MustParse(`VideoStream(v).call(UserInfo(u).track).count > 0 => pin(v); colocate(v, u);`)
	user := e.rt.SpawnOn("UserInfo", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(sim.Millisecond)
	}), 1)
	video := e.rt.SpawnOn("VideoStream", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Send(user, "track", nil, 64)
		ctx.Send(ctx.Self(), "stream", nil, 16)
	}), 0)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	startWork(e, video)
	e.k.Run(sim.Time(5 * sim.Second))

	if !e.rt.Pinned(video) {
		t.Fatal("video stream not pinned")
	}
	if e.rt.ServerOf(video) != 0 {
		t.Fatal("pinned actor moved")
	}
	if e.rt.ServerOf(user) != 0 {
		t.Fatalf("user info on %d, want colocated with video on 0", e.rt.ServerOf(user))
	}
}

func TestReserveDedicatesServer(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`
server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);
`)
	hot := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(30 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	cold := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	// Server 2 has a bystander so the reserve should prefer empty server 1.
	e.rt.SpawnOn("Other", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 2)

	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	cl := actor.NewClient(e.rt, 2)
	e.k.Every(20*sim.Millisecond, func() bool {
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(cold, "open", nil, 64, nil)
		return e.k.Now() < sim.Time(8*sim.Second)
	})
	e.k.Run(sim.Time(10 * sim.Second))

	if got := e.rt.ServerOf(hot); got != 1 {
		t.Fatalf("hot folder on %d, want reserved empty server 1", got)
	}
	if owner := m.srv(1).owner; owner != hot {
		t.Fatalf("server 1 reserved for %v, want %v", owner, hot)
	}
}

// TestReserveMovesPinnedActor runs a rule that both pins and reserves the
// hot folder. Reserve outranks pin (EPL103): the folder moves to the empty
// server the reservation dedicates to it and is pinned there.
func TestReserveMovesPinnedActor(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`
server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 => pin(fo); reserve(fo, cpu);
`)
	hot := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(30 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	cold := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	e.rt.SpawnOn("Other", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 2)
	e.rt.Pin(hot)

	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	cl := actor.NewClient(e.rt, 2)
	e.k.Every(20*sim.Millisecond, func() bool {
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(cold, "open", nil, 64, nil)
		return e.k.Now() < sim.Time(8*sim.Second)
	})
	e.k.Run(sim.Time(10 * sim.Second))

	if got := e.rt.ServerOf(hot); got != 1 {
		t.Fatalf("pinned hot folder on %d, want its dedicated server 1", got)
	}
	if owner := m.srv(1).owner; owner != hot {
		t.Fatalf("server 1 reserved for %v, want %v", owner, hot)
	}
	if !e.rt.Pinned(hot) {
		t.Fatal("hot folder lost its pin on the move")
	}
}

// TestProvClassPairSetsPreference evaluates a rule with two provclass
// behaviors at a GEM: the manager's scale-out preference is both classes,
// in behavior order, as the rule's ProvClassChain (which lint/model reads)
// states.
func TestProvClassPairSetsPreference(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 => provclass({warm}); provclass({container});`)
	w := e.rt.SpawnOn("Worker", worker(95), 0)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	startWork(e, w)
	e.k.Run(sim.Time(3 * sim.Second))

	var got []string
	for _, pc := range m.provPref {
		got = append(got, pc.String())
	}
	if want := pol.Rules[0].ProvClassChain(); !slices.Equal(got, want) || len(want) != 2 {
		t.Fatalf("provisioning preference = %v, want the rule's chain %v", got, want)
	}
}

func TestReservedServerRejectsOthers(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	owner := e.rt.SpawnOn("VIP", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 1)
	m.srv(1).owner = owner
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(reserveLease*sim.Second + sim.Second/2))
	// Balance wants to move workers but the only target is reserved: while
	// the lease runs the planner must avoid it, so nothing migrates.
	if len(e.rt.ActorsOn(1)) != 1 {
		t.Fatalf("reserved server accepted foreign actors: %v", e.rt.ActorsOn(1))
	}
	if m.Stats.ExecutedMigrations != 0 {
		t.Fatalf("migrations onto reserved server: %d", m.Stats.ExecutedMigrations)
	}
	// No reserve rule names the owner, so the lease lapses and balance may
	// use the server.
	e.k.Run(sim.Time(8 * sim.Second))
	if !m.srv(1).shared() || len(e.rt.ActorsOn(1)) == 1 {
		t.Fatalf("server 1 (reserved for %v) holds %v after the lease lapsed, want workers balanced onto it",
			m.srv(1).owner, e.rt.ActorsOn(1))
	}
}

func TestScaleOutWhenAllOverloaded(t *testing.T) {
	e := newEnv(1, 1, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	var refs []actor.Ref
	for i := 0; i < 3; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(50), 0))
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{
		Period: sim.Second, MinResidence: sim.Millisecond,
		ScaleOut: true, InstanceType: e.c.Machine(0).Type,
	})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(30 * sim.Second))
	if m.Stats.ScaleOuts == 0 {
		t.Fatal("no scale-out despite saturated fleet")
	}
	if e.c.UpCount() < 2 {
		t.Fatalf("up servers = %d", e.c.UpCount())
	}
	// Workers must eventually spread onto the new server.
	if len(e.rt.ActorsOn(1)) == 0 {
		t.Fatal("new server unused after scale-out")
	}
}

func TestScaleInWhenAllUnderutilized(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	// One light worker per server: everything far below 60%.
	var refs []actor.Ref
	for i := 0; i < 3; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(5), cluster.MachineID(i)))
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{
		Period: sim.Second, MinResidence: sim.Millisecond,
		ScaleIn: true, MinServers: 1, InstanceType: e.c.Machine(0).Type,
	})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(20 * sim.Second))
	if m.Stats.ScaleIns == 0 {
		t.Fatal("no scale-in despite idle fleet")
	}
	if e.c.UpCount() >= 3 {
		t.Fatalf("up servers = %d, want < 3", e.c.UpCount())
	}
	// No worker may be lost.
	total := 0
	for _, mach := range e.c.UpMachines() {
		total += len(e.rt.ActorsOn(mach.ID))
	}
	if total != 3 {
		t.Fatalf("workers after scale-in = %d", total)
	}
}

func TestPinPreventsBalanceMigration(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`
true => pin(Worker(w));
server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);
`)
	var refs []actor.Ref
	for i := 0; i < 3; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(50), 0))
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(8 * sim.Second))
	if m.Stats.ExecutedMigrations != 0 {
		t.Fatalf("pinned workers migrated %d times", m.Stats.ExecutedMigrations)
	}
	for _, r := range refs {
		if e.rt.ServerOf(r) != 0 {
			t.Fatal("pinned worker moved")
		}
	}
}

func TestStabilityBlocksImmediateRemigration(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	// MinResidence = 5 periods: within the first few periods nothing moves
	// because spawn counts as the last move.
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: 5 * sim.Second})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(4 * sim.Second))
	if m.Stats.ExecutedMigrations != 0 {
		t.Fatal("migration before minimum residence elapsed")
	}
	e.k.Run(sim.Time(12 * sim.Second))
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("no migration after residence elapsed")
	}
}

func TestPlacementHookColocatesNewActor(t *testing.T) {
	e := newEnv(1, 4, 2)
	pol := epl.MustParse(`Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second})
	m.Start()
	session := e.rt.SpawnOn("Session", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 2)
	player := e.rt.Spawn("Player", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), session)
	if e.rt.ServerOf(player) != 2 {
		t.Fatalf("player placed on %d, want creator's server 2", e.rt.ServerOf(player))
	}
}

func TestPlacementHookReserveTypePrefersIdle(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 50 => reserve(VideoStream(v), cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second})
	m.Start()
	// Load server 0.
	w := e.rt.SpawnOn("W", worker(40), 0)
	startWork(e, w)
	e.k.Run(sim.Time(500 * sim.Millisecond))
	vs := e.rt.Spawn("VideoStream", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), actor.Ref{})
	if e.rt.ServerOf(vs) != 1 {
		t.Fatalf("video stream placed on %d, want idle server 1", e.rt.ServerOf(vs))
	}
}

func TestPlacementHookFallsBackToRandom(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 => balance({Other}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second})
	m.Start()
	ref := e.rt.Spawn("Unrelated", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), actor.Ref{})
	if e.rt.ServerOf(ref) < 0 {
		t.Fatal("fallback placement failed")
	}
}

func TestConflictResolutionPrefersHigherPriority(t *testing.T) {
	e := newEnv(1, 3, 1)
	m := New(e.k, e.c, e.rt, e.prof, epl.MustParse(`true => pin(None(n));`), Config{Period: sim.Second})
	a := actor.Ref{ID: 42}
	final := m.resolveActions([]Action{
		{Actor: a, Src: 0, Trg: 1, Kind: epl.KindColocate, Pri: 20},
		{Actor: a, Src: 0, Trg: 2, Kind: epl.KindBalance, Pri: 40},
	})
	if len(final) != 1 || final[0].Trg != 2 || final[0].Kind != epl.KindBalance {
		t.Fatalf("resolved = %+v, want balance to server 2", final)
	}
	if m.Stats.ResolvedConflicts != 1 {
		t.Fatalf("conflicts = %d", m.Stats.ResolvedConflicts)
	}
}

func TestColocateFollowsMigratingPartner(t *testing.T) {
	e := newEnv(1, 3, 1)
	m := New(e.k, e.c, e.rt, e.prof, epl.MustParse(`true => pin(None(n));`), Config{Period: sim.Second})
	partner := actor.Ref{ID: 1}
	follower := actor.Ref{ID: 2}
	// The partner is being reserved onto server 2; the follower's colocate
	// was planned against the partner's old server 1.
	final := m.resolveActions([]Action{
		{Actor: follower, Src: 0, Trg: 1, Kind: epl.KindColocate, Pri: 20, Partner: partner},
		{Actor: partner, Src: 1, Trg: 2, Kind: epl.KindReserve, Pri: 30, Partner: partner},
	})
	for _, a := range final {
		if a.Actor == follower && a.Trg != 2 {
			t.Fatalf("follower retargeted to %d, want 2", a.Trg)
		}
	}
}

func TestMultipleGEMsStillBalance(t *testing.T) {
	run := func(gems int) (*env, *Manager) {
		e := newEnv(3, 8, 1)
		pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
		var refs []actor.Ref
		for i := 0; i < 16; i++ {
			refs = append(refs, e.rt.SpawnOn("Worker", worker(22), 0))
		}
		m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond, NumGEMs: gems})
		m.Start()
		startWork(e, refs...)
		e.k.Run(sim.Time(40 * sim.Second))
		return e, m
	}
	e, m := run(4)
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("no migrations with 4 GEMs")
	}
	if len(e.rt.ActorsOn(0)) == 16 {
		t.Fatal("load never left the hot server")
	}
	// Stale fills on a fault-free control plane are the LEMs' random GEM
	// choice, not loss: a server that reported to this GEM a period or two
	// ago and to another one now is filled from its last REPORT. One GEM
	// hears from every server every period and fills nothing.
	if m.Stats.StaleReportsUsed == 0 {
		t.Fatal("4 GEMs, no faults: StaleReportsUsed = 0, want the shuffle's fills")
	}
	if _, m1 := run(1); m1.Stats.StaleReportsUsed != 0 {
		t.Fatalf("1 GEM, no faults: StaleReportsUsed = %d, want 0", m1.Stats.StaleReportsUsed)
	}
}

func TestStopHaltsManagement(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	m.Stop()
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	startWork(e, refs...)
	e.k.Run(sim.Time(5 * sim.Second))
	if m.Stats.Ticks > 1 {
		t.Fatalf("manager ticked %d times after Stop", m.Stats.Ticks)
	}
}

// Start → Stop → Start leaves one period loop: the stopped loop's pending
// period lapses instead of resuming under the second Start's flag. Ticks
// land at 1 s, then 2.5, 3.5 and 4.5 s.
func TestRestartRunsOneLoop(t *testing.T) {
	e := newEnv(1, 2, 1)
	m := New(e.k, e.c, e.rt, e.prof, epl.MustParse(`server.cpu.perc > 80 => balance({Worker}, cpu);`),
		Config{Period: sim.Second})
	m.Start()
	e.k.At(sim.Time(1500*sim.Millisecond), func() {
		m.Stop()
		m.Start()
	})
	e.k.Run(sim.Time(5200 * sim.Millisecond))
	if m.Stats.Ticks != 4 {
		t.Fatalf("%d ticks after a restart, want 4 from one loop", m.Stats.Ticks)
	}
}

// Tick returns the EPR window it closed: every server, closed at the
// period boundary after one period.
func TestTickReturnsTheWindowItClosed(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second})
	ticks := 0
	e.k.Every(sim.Second, func() bool {
		ticks++
		snap := m.Tick()
		if want := sim.Time(ticks) * sim.Time(sim.Second); len(snap.Servers) != 2 || snap.At != want || snap.Window != sim.Second {
			t.Errorf("tick %d: %d servers, window closed at %v after %v; want 2 at %v after 1s",
				ticks, len(snap.Servers), snap.At, snap.Window, want)
		}
		return true
	})
	e.k.Run(sim.Time(5500 * sim.Millisecond))
	if ticks != 5 || m.Stats.Ticks != 5 {
		t.Fatalf("stepped %d periods, manager counted %d, want 5", ticks, m.Stats.Ticks)
	}
}

func distinctServers(e *env, refs []actor.Ref) int {
	srvs := map[cluster.MachineID]bool{}
	for _, r := range refs {
		srvs[e.rt.ServerOf(r)] = true
	}
	return len(srvs)
}

// Cassandra's Table 1 policy: the replicas a TableMeta lists go to
// distinct servers. Two tables' three replicas each start crowded on one
// server of three.
func TestSeparateSpreadsReplicas(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`
Replica(r1) in ref(TableMeta(t).replicas) and
Replica(r2) in ref(t.replicas) =>
    separate(r1, r2);
`)
	var tables [][]actor.Ref
	for tbl := 0; tbl < 2; tbl++ {
		var reps []actor.Ref
		for r := 0; r < 3; r++ {
			reps = append(reps, e.rt.SpawnOn("Replica", worker(10), 0))
		}
		e.rt.SetProp(e.rt.SpawnOn("TableMeta", quiet(), 0), "replicas", reps)
		startWork(e, reps...)
		tables = append(tables, reps)
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	e.k.Run(sim.Time(10 * sim.Second))
	for tbl, reps := range tables {
		if n := distinctServers(e, reps); n != 3 {
			t.Fatalf("table %d's replicas on %d servers, want 3", tbl, n)
		}
	}
}

// zExpander's Table 1 policy: on a server past 40% memory, each
// memory-heavy Leaf gets a server of its own. Three 160 MB leaves and their
// index start on one 512 MB server of four. Alone, a leaf fills 31% of its
// server, so the rule stops firing and the leases lapse; the leaves stay.
func TestReserveSpreadsMemoryHeavyLeaves(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 512, NetMbps: 1000, SpeedFac: 1})
	rt := actor.NewRuntime(k, c)
	e := &env{k: k, c: c, rt: rt, prof: profile.New(k, c, rt)}
	pol := epl.MustParse(`server.mem.perc > 40 => reserve(Leaf(l), mem);`)
	leaf := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.SetMemSize(160 << 20)
		ctx.Use(sim.Millisecond)
		ctx.SendAfter(100*sim.Millisecond, ctx.Self(), "store", nil, 16)
	})
	var leaves []actor.Ref
	for i := 0; i < 3; i++ {
		leaves = append(leaves, e.rt.SpawnOn("Leaf", leaf, 0))
	}
	e.rt.SpawnOn("Index", worker(5), 0)
	startWork(e, leaves...)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	e.k.Run(sim.Time(6 * sim.Second))
	for _, lf := range leaves {
		if s := e.rt.ServerOf(lf); s == 0 || m.srv(s).owner != lf || len(e.rt.ActorsOn(s)) != 1 {
			t.Fatalf("leaf %v on server %d (reserved for %v, holding %v), want a server of its own",
				lf, s, m.srv(s).owner, e.rt.ActorsOn(s))
		}
	}
	e.k.Run(sim.Time(10 * sim.Second))
	for _, lf := range leaves {
		if s := e.rt.ServerOf(lf); s == 0 || !m.srv(s).shared() {
			t.Fatalf("leaf %v on server %d (reserved for %v), want its lapsed server", lf, s, m.srv(s).owner)
		}
	}
	if n := distinctServers(e, leaves); n != 3 {
		t.Fatalf("leaves on %d servers, want 3", n)
	}
}

// The B+ tree's Table 1 policy: an inner node colocates with the inner
// nodes it lists as children, and leaves stay apart. The inner nodes (a
// root, two children, a grandchild) start one per server, so the ref
// family must converge onto one; the busy leaves start crowded on one
// server, so separate must spread them.
func TestElasticityColocatesInnerFamilies(t *testing.T) {
	e := newEnv(1, 4, 1)
	pol := epl.MustParse(`
InnerNode(c) in ref(InnerNode(p).children) => colocate(p, c);
true => separate(LeafNode(a), LeafNode(b));
`)
	var inners, leaves []actor.Ref
	for i := 0; i < 4; i++ {
		inners = append(inners, e.rt.SpawnOn("InnerNode", quiet(), cluster.MachineID(i)))
		leaves = append(leaves, e.rt.SpawnOn("LeafNode", worker(15), 0))
	}
	e.rt.SetProp(inners[0], "children", inners[1:3])
	e.rt.SetProp(inners[1], "children", inners[3:])
	startWork(e, leaves...)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	e.k.Run(sim.Time(8 * sim.Second))
	if n := distinctServers(e, inners); n != 1 {
		t.Fatalf("inner nodes on %d servers, want 1", n)
	}
	if n := distinctServers(e, leaves); n != 4 {
		t.Fatalf("leaves on %d servers, want 4", n)
	}
}

// Piccolo's Table 1 policy balances Workers while colocating each with the
// Table it reads (EPL105's pair). Eight Workers, each about 40% of a core,
// start on server 0, far over the band, and their Tables (which hold the
// state, so each pair's home is the Table's server) are spread over the
// other three. Balance sheds Workers off server 0 while colocate pulls
// every Worker to its Table in the same periods; each must end beside it.
func TestElasticityColocatesWorkerWithTable(t *testing.T) {
	e := newEnv(1, 4, 2)
	pol := epl.MustParse(`
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Worker}, cpu);
Table(t) in ref(Worker(w).reads) => colocate(w, t);
`)
	var workers, tables []actor.Ref
	for i := 0; i < 8; i++ {
		table := e.rt.SpawnOn("Table", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.SetMemSize(1 << 20)
			ctx.Use(50 * sim.Microsecond)
		}), cluster.MachineID(1+i%3))
		w := e.rt.SpawnOn("Worker", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(40 * sim.Millisecond)
			ctx.Send(table, "get", nil, 64)
			ctx.SendAfter(60*sim.Millisecond, ctx.Self(), "work", nil, 16)
		}), 0)
		e.rt.SetProp(w, "reads", []actor.Ref{table})
		workers, tables = append(workers, w), append(tables, table)
	}
	startWork(e, workers...)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	e.k.Run(sim.Time(10*sim.Second + 500*sim.Millisecond))
	for i, w := range workers {
		if ws, ts := e.rt.ServerOf(w), e.rt.ServerOf(tables[i]); ws != ts {
			t.Fatalf("worker %d on server %d, its table on %d", i, ws, ts)
		}
	}
}

// TestRuleFiredAllocatesOnlyDetail pins a traced rule firing to one
// allocation, its Detail string: the bytes are built in the manager's
// reused buffer and the ring has wrapped, so it allocates nothing itself.
func TestRuleFiredAllocatesOnlyDetail(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 and server.mem.perc > 50 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second})
	ring := trace.NewRing(1)
	m.SetTracer(trace.New(ring))
	obs := m.obs(0, 1, "lem")
	values := []epl.FeatureValue{{Feature: "server.cpu.perc > 80", Value: 91.5}, {Feature: "server.mem.perc > 50", Value: 62.25}}
	fire := func() { obs.RuleFired(pol.Rules[0], actor.Ref{ID: 7}, 1, values) }
	if a := testing.AllocsPerRun(100, fire); a > 1 {
		t.Fatalf("RuleFired made %v allocations, want at most 1 (the Detail string)", a)
	}
	want := "server.cpu.perc > 80 = 91.5; server.mem.perc > 50 = 62.25"
	if got := ring.Records()[0].Detail; got != want {
		t.Fatalf("Detail = %q, want %q", got, want)
	}
}
