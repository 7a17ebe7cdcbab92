package profile

import (
	"fmt"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// hookFleet spawns n idle Worker actors over four servers and returns the
// profiler with every (caller, callee) pair of an all-to-fanin pattern
// already in its call tables: callee i hears "push" from the fanin actors
// after it and "tick" from a client, the shape of a PageRank superstep.
// traffic replays one window of it through the hooks.
func hookFleet(tb testing.TB, n, fanin int) (p *Profiler, traffic func()) {
	tb.Helper()
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	p = New(k, c, rt)
	refs := make([]actor.Ref, n)
	for i := range refs {
		refs[i] = rt.SpawnOn("Worker", actor.BehaviorFunc(func(*actor.Context, actor.Message) {}), cluster.MachineID(i%4))
	}
	traffic = func() {
		for i, callee := range refs {
			srv := cluster.MachineID(i % 4)
			p.OnMessage(srv, actor.ClientCaller, actor.Ref{}, callee, "Worker", "tick", 64)
			for j := 1; j <= fanin; j++ {
				p.OnMessage(srv, "Worker", refs[(i+j)%n], callee, "Worker", "push", 256)
			}
			p.OnCPU(srv, callee, "Worker", sim.Millisecond)
			p.OnNet(srv, callee, "Worker", 128)
		}
	}
	// Two windows settle the tables: keys added, sorted, indexed.
	for w := 1; w <= 2; w++ {
		traffic()
		k.Run(sim.Time(w) * sim.Time(sim.Second))
		p.Snapshot(nil)
		p.Reset()
	}
	return p, traffic
}

// BenchmarkOnMessage is the per-message hook in steady state: every key is
// already in its callee's table, found by linear scan at fanin 4 and through
// the index at fanin 64. Ceiling: 0 allocs/op (TestHookAllocCeiling).
func BenchmarkOnMessage(b *testing.B) {
	for _, fanin := range []int{4, 64} {
		b.Run(fmt.Sprintf("fanin=%d", fanin), func(b *testing.B) {
			const n = 128
			p, traffic := hookFleet(b, n, fanin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n * (fanin + 1) {
				traffic()
			}
			b.StopTimer()
			if p.Messages() == 0 {
				b.Fatal("no messages profiled")
			}
		})
	}
}

// BenchmarkSnapshotSteady is a snapshot of a window that added no key: no
// table is sorted or re-indexed, live records are copied out. Ceiling: one
// allocation per up server, plus one under -race (TestHookAllocCeiling).
func BenchmarkSnapshotSteady(b *testing.B) {
	p, traffic := hookFleet(b, 1024, 8)
	traffic()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.Snapshot(nil).Actors) != 1024 {
			b.Fatal("snapshot lost actors")
		}
	}
}

// The allocation ceilings of the EPR's hot paths. Steady state means the
// window's keys were all seen before: the hooks then only bump counters, and
// Snapshot finds every table sorted and every row in place — it allocates its
// ServerInfos (fresh on purpose, see Profiler) and no more.
func TestHookAllocCeiling(t *testing.T) {
	p, traffic := hookFleet(t, 128, 64)
	if got := testing.AllocsPerRun(5, traffic); got != 0 {
		t.Errorf("steady-state OnMessage/OnCPU/OnNet: %.0f allocs per window, want 0", got)
	}
	for id := range p.calls {
		if p.calls[id].unsorted {
			t.Fatalf("callee %d awaits a sort after a window that added no key", id)
		}
	}
	// One ServerInfo per up server, plus the visit closure when the race
	// detector's instrumentation moves it to the heap; a sort.Slice per
	// callee would be hundreds.
	ceiling := float64(len(p.c.UpMachines()) + 1)
	if got := testing.AllocsPerRun(5, func() { p.Snapshot(nil) }); got > ceiling {
		t.Errorf("steady Snapshot: %.0f allocs, ceiling %.0f", got, ceiling)
	}
	p.Reset()
	traffic()
	if got := testing.AllocsPerRun(5, func() { p.Reset(); traffic() }); got != 0 {
		t.Errorf("Reset + steady window: %.0f allocs, want 0", got)
	}
}
