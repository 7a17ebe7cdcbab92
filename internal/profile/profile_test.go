package profile

import (
	"math"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

func env() (*sim.Kernel, *cluster.Cluster, *actor.Runtime, *Profiler) {
	k := sim.New(1)
	typ := cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 1024, NetMbps: 100, SpeedFac: 1}
	c := cluster.New(k, 2, typ)
	rt := actor.NewRuntime(k, c)
	p := New(k, c, rt)
	return k, c, rt, p
}

func TestSnapshotServerStats(t *testing.T) {
	k, _, rt, p := env()
	busy := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(400 * sim.Millisecond)
	})
	ref := rt.SpawnOn("W", busy, 0)
	cl := actor.NewClient(rt, 1)
	cl.Send(ref, "work", nil, 100)
	cl.Send(ref, "work", nil, 100)
	k.Run(sim.Time(sim.Second))
	k.RunUntilIdle()
	snap := p.Snapshot(nil)
	if len(snap.Servers) != 2 {
		t.Fatalf("servers = %d", len(snap.Servers))
	}
	s0 := snap.Server(0)
	// ~800ms busy out of ~1s window.
	if s0.CPUPerc < 70 || s0.CPUPerc > 90 {
		t.Fatalf("server 0 CPU%% = %v, want ~80", s0.CPUPerc)
	}
	if s1 := snap.Server(1); s1.CPUPerc != 0 {
		t.Fatalf("server 1 CPU%% = %v, want 0", s1.CPUPerc)
	}
}

func TestSnapshotActorCPUAttribution(t *testing.T) {
	k, _, rt, p := env()
	mk := func(cost sim.Duration) actor.Ref {
		return rt.SpawnOn("W", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(cost)
		}), 0)
	}
	big := mk(300 * sim.Millisecond)
	small := mk(100 * sim.Millisecond)
	cl := actor.NewClient(rt, 1)
	cl.Send(big, "w", nil, 10)
	cl.Send(small, "w", nil, 10)
	k.Run(sim.Time(sim.Second))
	k.RunUntilIdle()
	snap := p.Snapshot(nil)
	ab, as := snap.Actor(big), snap.Actor(small)
	if ab.CPUPerc <= as.CPUPerc {
		t.Fatalf("big %.1f%% <= small %.1f%%", ab.CPUPerc, as.CPUPerc)
	}
	// Shares should roughly reflect 3:1.
	ratio := ab.CPUPerc / as.CPUPerc
	if math.Abs(ratio-3) > 0.5 {
		t.Fatalf("cpu ratio = %v, want ~3", ratio)
	}
}

func TestSnapshotCallStats(t *testing.T) {
	k, _, rt, p := env()
	folder := rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(sim.Millisecond)
	}), 0)
	cl := actor.NewClient(rt, 1)
	for i := 0; i < 5; i++ {
		cl.Send(folder, "open", nil, 200)
	}
	k.RunUntilIdle()
	snap := p.Snapshot(nil)
	ai := snap.Actor(folder)
	if len(ai.Calls) != 1 {
		t.Fatalf("calls = %+v", ai.Calls)
	}
	cs := ai.Calls[0]
	if cs.CallerType != actor.ClientCaller || cs.Method != "open" || cs.Count != 5 || cs.Bytes != 1000 {
		t.Fatalf("call stat = %+v", cs)
	}
}

func TestSnapshotActorCallerTracked(t *testing.T) {
	k, _, rt, p := env()
	user := rt.SpawnOn("UserInfo", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 0)
	vs := rt.SpawnOn("VideoStream", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Send(user, "track", nil, 50)
	}), 1)
	actor.NewClient(rt, 0).Send(vs, "watch", nil, 10)
	k.RunUntilIdle()
	snap := p.Snapshot(nil)
	ai := snap.Actor(user)
	found := false
	for _, cs := range ai.Calls {
		if cs.Method == "track" && cs.CallerType == "VideoStream" && cs.Caller == vs && cs.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("track call not attributed: %+v", ai.Calls)
	}
}

func TestResetClearsWindow(t *testing.T) {
	k, _, rt, p := env()
	ref := rt.SpawnOn("W", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(100 * sim.Millisecond)
	}), 0)
	actor.NewClient(rt, 1).Send(ref, "w", nil, 10)
	k.RunUntilIdle()
	p.Reset()
	k.Run(k.Now() + sim.Time(sim.Second))
	snap := p.Snapshot(nil)
	ai := snap.Actor(ref)
	if ai.CPUPerc != 0 || ai.CPUTime != 0 || len(ai.Calls) != 0 {
		t.Fatalf("stats survived reset: %+v", ai)
	}
	if snap.Server(0).CPUPerc != 0 {
		t.Fatalf("server window survived reset: %v", snap.Server(0).CPUPerc)
	}
}

// A crashed machine leaves the snapshot's scope: its row leaves Servers and
// its actor, not yet recovered, keeps its metadata but shows no usage until
// the machine is repaired.
func TestSnapshotScope(t *testing.T) {
	k, c, rt, p := env()
	a0 := rt.SpawnOn("W", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(50 * sim.Millisecond)
	}), 0)
	a1 := rt.SpawnOn("W", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(50 * sim.Millisecond)
	}), 1)
	cl := actor.NewClient(rt, 0)
	cl.Send(a0, "w", nil, 10)
	cl.Send(a1, "w", nil, 10)
	k.RunUntilIdle()
	c.Fail(1)
	snap := p.Snapshot(nil)
	if len(snap.Servers) != 1 || snap.Servers[0].ID != 0 {
		t.Fatalf("servers with machine 1 down = %+v", snap.Servers)
	}
	if ai := snap.Actor(a1); ai == nil || ai.Server != 1 {
		t.Fatalf("actor on the down machine: %+v, want its metadata on server 1", ai)
	}
	if ai := snap.Actor(a1); ai.CPUPerc != 0 || ai.CPUTime != 0 {
		t.Fatalf("actor on the down machine shows usage: %+v", ai)
	}
	if snap.Actor(a0).CPUPerc == 0 {
		t.Fatal("actor on the up machine lost its usage")
	}
	c.Repair(1)
	snap = p.Snapshot(nil)
	if len(snap.Servers) != 2 {
		t.Fatalf("servers after repair = %+v", snap.Servers)
	}
	if snap.Actor(a1).CPUPerc == 0 {
		t.Fatal("actor on the repaired machine shows no usage")
	}
}

func TestSnapshotPropsAndPins(t *testing.T) {
	k, _, rt, p := env()
	file := rt.SpawnOn("File", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 0)
	folder := rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.SetProp("files", []actor.Ref{file})
	}), 0)
	actor.NewClient(rt, 0).Send(folder, "init", nil, 1)
	k.RunUntilIdle()
	rt.Pin(file)
	snap := p.Snapshot(nil)
	fi := snap.Actor(folder)
	if len(fi.Props["files"]) != 1 || fi.Props["files"][0] != file {
		t.Fatalf("props = %+v", fi.Props)
	}
	if !snap.Actor(file).Pinned {
		t.Fatal("pin not reflected")
	}
}

func TestSnapshotFeedsEvaluator(t *testing.T) {
	// End-to-end: profiled workload drives the PageRank balance rule.
	k, _, rt, p := env()
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Partition}, cpu);`)
	w := rt.SpawnOn("Partition", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(900 * sim.Millisecond)
	}), 0)
	actor.NewClient(rt, 1).Send(w, "compute", nil, 10)
	k.Run(sim.Time(sim.Second))
	k.RunUntilIdle()
	var fired firedCount
	in := epl.EvaluateObserved(pol, p.Snapshot(nil), true, true, &fired)
	if len(in.Balance) != 1 {
		t.Fatalf("balance = %+v", in.Balance)
	}
	// Server 0 ~90% (over), server 1 0% (under): both violate.
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want the rule firing on both servers", fired)
	}
}

// firedCount lists, per evaluated rule, the contexts it fired in.
type firedCount []int

func (f *firedCount) RuleEvaluated(_ *epl.Rule, _, fired int, _ bool)                     { *f = append(*f, fired) }
func (*firedCount) RuleFired(*epl.Rule, actor.Ref, cluster.MachineID, []epl.FeatureValue) {}

func TestMessagesCounter(t *testing.T) {
	k, _, rt, p := env()
	ref := rt.SpawnOn("W", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 0)
	cl := actor.NewClient(rt, 0)
	for i := 0; i < 7; i++ {
		cl.Send(ref, "m", nil, 1)
	}
	k.RunUntilIdle()
	calls := p.Snapshot(nil).Actor(ref).Calls
	if len(calls) != 1 || calls[0].Method != "m" || calls[0].Count != 7 {
		t.Fatalf("calls = %+v, want one CallStat counting 7 sends of m", calls)
	}
}
