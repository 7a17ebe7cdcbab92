package actor

import (
	"testing"
	"testing/quick"

	"plasma/internal/cluster"
	"plasma/internal/sim"
)

func testEnv(t *testing.T, machines int) (*sim.Kernel, *cluster.Cluster, *Runtime) {
	t.Helper()
	k := sim.New(1)
	typ := cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1}
	c := cluster.New(k, machines, typ)
	rt := NewRuntime(k, c)
	return k, c, rt
}

type echo struct{ got []Message }

func (e *echo) Receive(ctx *Context, msg Message) {
	e.got = append(e.got, msg)
	ctx.Use(sim.Millisecond)
	ctx.Reply("ok:"+msg.Method, 16)
}

func TestSpawnAndRequestReply(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	e := &echo{}
	ref := rt.SpawnOn("Echo", e, 0)
	cl := NewClient(rt, 1)
	var lat sim.Duration
	var reply interface{}
	cl.Request(ref, "ping", 42, 100, func(l sim.Duration, r interface{}) { lat, reply = l, r })
	k.RunUntilIdle()
	if len(e.got) != 1 || e.got[0].Method != "ping" || e.got[0].Arg.(int) != 42 {
		t.Fatalf("bad delivery: %+v", e.got)
	}
	if e.got[0].SenderType != ClientCaller {
		t.Fatalf("sender type %q, want client", e.got[0].SenderType)
	}
	if reply != "ok:ping" {
		t.Fatalf("reply = %v", reply)
	}
	// Latency must include 1ms processing plus two network hops.
	if lat < sim.Millisecond {
		t.Fatalf("latency %v < processing cost", lat)
	}
}

func TestLocalVsRemoteLatency(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	ref := rt.SpawnOn("Echo", &echo{}, 0)

	measure := func(site cluster.MachineID) sim.Duration {
		cl := NewClient(rt, site)
		var lat sim.Duration
		cl.Request(ref, "m", nil, 100, func(l sim.Duration, _ interface{}) { lat = l })
		k.RunUntilIdle()
		return lat
	}
	local := measure(0)
	remote := measure(1)
	if remote <= local {
		t.Fatalf("remote latency %v should exceed local %v", remote, local)
	}
}

func TestMailboxSerializesMessages(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	var done []sim.Time
	b := BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Reply(nil, 1)
	})
	ref := rt.SpawnOn("A", b, 0)
	cl := NewClient(rt, 0)
	for i := 0; i < 3; i++ {
		cl.Request(ref, "m", nil, 1, func(l sim.Duration, _ interface{}) { done = append(done, k.Now()) })
	}
	k.RunUntilIdle()
	if len(done) != 3 {
		t.Fatalf("replies = %d", len(done))
	}
	// Actor processes one at a time even on a 2-core machine: completions
	// must be spaced by >= 10ms.
	for i := 1; i < len(done); i++ {
		if done[i]-done[i-1] < sim.Time(10*sim.Millisecond) {
			t.Fatalf("messages overlapped: %v", done)
		}
	}
}

func TestSendBetweenActors(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	var got Message
	sink := BehaviorFunc(func(ctx *Context, msg Message) { got = msg })
	sinkRef := rt.SpawnOn("Sink", sink, 1)
	src := BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(sim.Millisecond)
		ctx.Send(sinkRef, "fwd", "data", 64)
	})
	srcRef := rt.SpawnOn("Src", src, 0)
	NewClient(rt, 0).Send(srcRef, "go", nil, 1)
	k.RunUntilIdle()
	if got.Method != "fwd" || got.SenderType != "Src" || got.Sender != srcRef {
		t.Fatalf("got %+v", got)
	}
}

func TestForwardPreservesReplyPath(t *testing.T) {
	k, _, rt := testEnv(t, 3)
	leaf := BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(sim.Millisecond)
		ctx.Reply("from-leaf", 8)
	})
	leafRef := rt.SpawnOn("Leaf", leaf, 2)
	mid := BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(sim.Millisecond)
		ctx.Forward(leafRef, "deep", msg.Arg, msg.Size)
	})
	midRef := rt.SpawnOn("Mid", mid, 1)
	var reply interface{}
	NewClient(rt, 0).Request(midRef, "top", nil, 10, func(_ sim.Duration, r interface{}) { reply = r })
	k.RunUntilIdle()
	if reply != "from-leaf" {
		t.Fatalf("reply = %v, want from-leaf", reply)
	}
}

func TestMigrationMovesActor(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	ref := rt.SpawnOn("A", &echo{}, 0)
	ok := false
	rt.Migrate(ref, 1, func(b bool) { ok = b })
	k.RunUntilIdle()
	if !ok {
		t.Fatal("migration failed")
	}
	if rt.ServerOf(ref) != 1 {
		t.Fatalf("actor on %d, want 1", rt.ServerOf(ref))
	}
	if rt.Migrations() != 1 {
		t.Fatalf("migrations = %d", rt.Migrations())
	}
}

func TestMigrationWaitsForBusyActor(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	b := BehaviorFunc(func(ctx *Context, msg Message) { ctx.Use(50 * sim.Millisecond) })
	ref := rt.SpawnOn("A", b, 0)
	NewClient(rt, 0).Send(ref, "work", nil, 1)
	k.Run(sim.Time(sim.Millisecond)) // message being processed
	var doneAt sim.Time
	rt.Migrate(ref, 1, func(ok bool) {
		if ok {
			doneAt = k.Now()
		}
	})
	k.RunUntilIdle()
	if doneAt < sim.Time(50*sim.Millisecond) {
		t.Fatalf("migration completed at %v, before message finished", doneAt)
	}
	if rt.ServerOf(ref) != 1 {
		t.Fatal("actor did not move")
	}
}

func TestMigrationCostGrowsWithState(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	small := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.SetMemSize(1 << 10)
	}), 0)
	big := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.SetMemSize(64 << 20)
	}), 0)
	cl := NewClient(rt, 0)
	cl.Send(small, "init", nil, 1)
	cl.Send(big, "init", nil, 1)
	k.RunUntilIdle()

	migrate := func(ref Ref, dst cluster.MachineID) sim.Duration {
		start := k.Now()
		var end sim.Time
		rt.Migrate(ref, dst, func(bool) { end = k.Now() })
		k.RunUntilIdle()
		return sim.Duration(end - start)
	}
	dSmall := migrate(small, 1)
	dBig := migrate(big, 1)
	if dBig <= dSmall {
		t.Fatalf("big-state migration (%v) not slower than small (%v)", dBig, dSmall)
	}
}

// MoveCost is what the runtime takes to move a 64 MB actor on an idle
// cluster, to the microsecond: from Migrate to commit is serialize at the
// source's speed, the transfer at the slower NIC, deserialize at the
// target's speed. The target boots through ProvisionClass, so a mixed pair
// reads each side's own type.
func TestMoveCostMatchesIdleMigration(t *testing.T) {
	const bytes = 64 << 20
	for _, tc := range []struct {
		name     string
		src, dst cluster.InstanceType
		want     sim.Duration
	}{
		{"m1.small to m1.small", cluster.M1Small, cluster.M1Small, 2_787_983 * sim.Microsecond},
		{"m5.large to m5.large", cluster.M5Large, cluster.M5Large, 214_187 * sim.Microsecond},
		{"m1.small to m5.large", cluster.M1Small, cluster.M5Large, 2_547_983 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			c := cluster.New(k, 1, tc.src)
			rt := NewRuntime(k, c)
			dst := c.ProvisionClass(tc.dst, &cluster.ProvSpec{Class: cluster.VM, BootMin: tc.dst.Boot, Capacity: -1}, nil).ID
			ref := rt.SpawnOn("Big", BehaviorFunc(func(ctx *Context, _ Message) { ctx.SetMemSize(bytes) }), 0)
			NewClient(rt, 0).Send(ref, "init", nil, 8)
			k.RunUntilIdle()
			start, took := k.Now(), sim.Duration(-1)
			rt.Migrate(ref, dst, func(ok bool) {
				if ok {
					took = sim.Duration(k.Now() - start)
				}
			})
			k.RunUntilIdle()
			if cost := rt.MoveCost(bytes, 0, dst); took != cost || cost != tc.want {
				t.Fatalf("migration took %v, MoveCost %v, want both %v", took, cost, tc.want)
			}
		})
	}
}

func TestPinnedActorRefusesMigration(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	ref := rt.SpawnOn("A", &echo{}, 0)
	rt.Pin(ref)
	ok := true
	rt.Migrate(ref, 1, func(b bool) { ok = b })
	k.RunUntilIdle()
	if ok || rt.ServerOf(ref) != 0 {
		t.Fatal("pinned actor moved")
	}
	rt.Unpin(ref)
	rt.Migrate(ref, 1, func(b bool) { ok = b })
	k.RunUntilIdle()
	if !ok {
		t.Fatal("unpinned actor should move")
	}
}

func TestMessagesChaseMigratedActor(t *testing.T) {
	k, _, rt := testEnv(t, 3)
	var got int
	b := BehaviorFunc(func(ctx *Context, msg Message) {
		got++
		ctx.Use(sim.Millisecond)
		ctx.Reply(nil, 1)
	})
	ref := rt.SpawnOn("A", b, 0)
	cl := NewClient(rt, 2)
	replies := 0
	// Send, migrate while in flight, send again.
	cl.Request(ref, "m1", nil, 1000, func(sim.Duration, interface{}) { replies++ })
	rt.Migrate(ref, 1, nil)
	cl.Request(ref, "m2", nil, 1000, func(sim.Duration, interface{}) { replies++ })
	k.RunUntilIdle()
	if got != 2 || replies != 2 {
		t.Fatalf("got=%d replies=%d, want 2,2", got, replies)
	}
	if rt.ServerOf(ref) != 1 {
		t.Fatal("actor not at destination")
	}
}

func TestStopDropsActor(t *testing.T) {
	k, c, rt := testEnv(t, 1)
	ref := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.SetMemSize(1 << 20)
	}), 0)
	NewClient(rt, 0).Send(ref, "init", nil, 1)
	k.RunUntilIdle()
	if c.Machine(0).MemUsed() != 1<<20 {
		t.Fatalf("mem = %d", c.Machine(0).MemUsed())
	}
	rt.Stop(ref)
	if rt.Exists(ref) || rt.TypeOf(ref) != "" || rt.ServerOf(ref) != -1 {
		t.Fatal("stopped actor still visible")
	}
	if c.Machine(0).MemUsed() != 0 {
		t.Fatal("memory not released on stop")
	}
	// Message to dead actor must not crash.
	NewClient(rt, 0).Send(ref, "late", nil, 1)
	k.RunUntilIdle()
}

func TestPropsVisibleToRuntime(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	child := rt.SpawnOn("File", &echo{}, 0)
	parent := rt.SpawnOn("Folder", BehaviorFunc(func(ctx *Context, msg Message) {
		files := []Ref{child}
		ctx.SetProp("files", files)
		ctx.SetProp("files", append(files, child))
	}), 0)
	NewClient(rt, 0).Send(parent, "init", nil, 1)
	k.RunUntilIdle()
	info, _ := rt.Lookup(parent)
	refs := info.Props["files"]
	if len(refs) != 2 || refs[0] != child || refs[1] != child {
		t.Fatalf("props = %v", refs)
	}
	if info.Props["nope"] != nil {
		t.Fatal("missing prop should be nil")
	}
}

func TestActorsOnAndOrdering(t *testing.T) {
	_, _, rt := testEnv(t, 2)
	a := rt.SpawnOn("A", &echo{}, 0)
	b := rt.SpawnOn("B", &echo{}, 1)
	c := rt.SpawnOn("C", &echo{}, 0)
	on0 := rt.ActorsOn(0)
	if len(on0) != 2 || on0[0] != a || on0[1] != c {
		t.Fatalf("ActorsOn(0) = %v", on0)
	}
	all := liveActors(rt)
	if len(all) != 3 || all[0] != a || all[1] != b || all[2] != c {
		t.Fatalf("ForEachActor visited %v", all)
	}
}

// liveActors lists the live actors in the order ForEachActor visits them.
func liveActors(rt *Runtime) []Ref {
	var refs []Ref
	rt.ForEachActor(func(info Info) { refs = append(refs, info.Ref) })
	return refs
}

// The actor table is a slice indexed by id: an id past its end (never
// issued), the zero id and a stopped actor's id must all read as "nobody"
// through every entry point, and touching them must neither panic nor bring
// an actor back.
func TestNeverIssuedAndStoppedIDsAreNobody(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	e := &echo{}
	kept := rt.SpawnOn("Echo", e, 0)
	stopped := rt.SpawnOn("Echo", e, 1)
	rt.Stop(stopped)
	cl := NewClient(rt, 0)
	for _, ref := range []Ref{{}, stopped, {ID: stopped.ID + 1}, {ID: 1 << 40}, {ID: ^ID(0)}} {
		rt.Stop(ref) // no-op
		cl.Send(ref, "late", nil, 8)
		cl.Request(ref, "late", nil, 8, func(sim.Duration, interface{}) { t.Errorf("%v answered", ref) })
		rt.SetProp(ref, "p", []Ref{kept})
		rt.Pin(ref)
		failed := false
		rt.Migrate(ref, 1, func(ok bool) { failed = !ok })
		k.RunUntilIdle()
		_, found := rt.Lookup(ref)
		if rt.Exists(ref) || found || rt.TypeOf(ref) != "" || rt.ServerOf(ref) != -1 || rt.Pinned(ref) ||
			rt.MigratingTo(ref) != -1 || !failed {
			t.Fatalf("%v: nobody should be there", ref)
		}
	}
	if len(e.got) != 0 {
		t.Fatalf("a dead letter was delivered: %+v", e.got)
	}
	if all := liveActors(rt); rt.NumActors() != 1 || len(all) != 1 || all[0] != kept || rt.NumActorsOn(1) != 0 {
		t.Fatalf("live set = %v (NumActors %d), want just %v", all, rt.NumActors(), kept)
	}
	// The next spawn takes a fresh id, not the stopped one's.
	if next := rt.SpawnOn("Echo", e, 1); next.ID != stopped.ID+1 {
		t.Fatalf("spawn after stop got id %d, want %d", next.ID, stopped.ID+1)
	}
}

type countingProfiler struct {
	msgs, cpu, net int
	lastMethod     string
}

func (p *countingProfiler) OnMessage(_ cluster.MachineID, _ string, _ Ref, _ Ref, _, method string, _ int64) {
	p.msgs++
	p.lastMethod = method
}
func (p *countingProfiler) OnCPU(cluster.MachineID, Ref, string, sim.Duration) { p.cpu++ }
func (p *countingProfiler) OnNet(cluster.MachineID, Ref, string, int64)        { p.net++ }

func TestProfilerHookFires(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	p := &countingProfiler{}
	rt.SetProfiler(p)
	ref := rt.SpawnOn("A", &echo{}, 0)
	NewClient(rt, 0).Request(ref, "hi", nil, 10, nil)
	k.RunUntilIdle()
	if p.msgs != 1 || p.cpu != 1 || p.net != 1 || p.lastMethod != "hi" {
		t.Fatalf("profiler counts: %+v", p)
	}
}

func TestProfilingAddsCost(t *testing.T) {
	run := func(profile bool) sim.Time {
		k := sim.New(1)
		c := cluster.New(k, 1, cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 1024, NetMbps: 100, SpeedFac: 1})
		rt := NewRuntime(k, c)
		if profile {
			rt.SetProfiler(&countingProfiler{})
		}
		ref := rt.SpawnOn("A", &echo{}, 0)
		cl := NewClient(rt, 0)
		for i := 0; i < 100; i++ {
			cl.Send(ref, "m", nil, 1)
		}
		k.RunUntilIdle()
		return k.Now()
	}
	off, on := run(false), run(true)
	if on <= off {
		t.Fatalf("profiling on (%v) should cost more than off (%v)", on, off)
	}
	overhead := float64(on-off) / float64(off)
	if overhead > 0.05 {
		t.Fatalf("profiling overhead %.3f too large (Table 3 says <= 2.3%%)", overhead)
	}
}

type placeAt struct{ srv cluster.MachineID }

func (p placeAt) Place(string, Ref, cluster.MachineID) cluster.MachineID { return p.srv }

func TestPlacementHookUsed(t *testing.T) {
	_, _, rt := testEnv(t, 3)
	rt.SetPlacement(placeAt{srv: 2})
	ref := rt.Spawn("A", &echo{}, Ref{})
	if rt.ServerOf(ref) != 2 {
		t.Fatalf("placed on %d, want 2", rt.ServerOf(ref))
	}
	rt.SetPlacement(placeAt{srv: -1}) // fall back to random
	ref2 := rt.Spawn("A", &echo{}, Ref{})
	if rt.ServerOf(ref2) < 0 {
		t.Fatal("fallback placement failed")
	}
}

// Property: no message is lost — every request to a live echo actor gets a
// reply, under random migration interleavings.
func TestPropertyNoMessageLoss(t *testing.T) {
	f := func(moves []uint8) bool {
		k := sim.New(31)
		c := cluster.New(k, 4, cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1})
		rt := NewRuntime(k, c)
		ref := rt.SpawnOn("A", &echo{}, 0)
		cl := NewClient(rt, 0)
		want := 0
		got := 0
		for _, mv := range moves {
			want++
			cl.Request(ref, "m", nil, 100, func(sim.Duration, interface{}) { got++ })
			dst := cluster.MachineID(mv % 4)
			rt.Migrate(ref, dst, nil)
			k.Run(k.Now() + sim.Time(sim.Duration(mv)*sim.Millisecond))
		}
		k.RunUntilIdle()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
