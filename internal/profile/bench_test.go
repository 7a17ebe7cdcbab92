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
			var msgs int64
			for _, a := range p.Snapshot(nil).Actors {
				for _, cs := range a.Calls {
					msgs += cs.Count
				}
			}
			if msgs == 0 {
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

// sparseFleet spawns n idle Workers over four servers and returns the
// profiler and one elasticity period of the sparse shape: Reset, a hundredth
// of the fleet (a different hundredth each period) messaged by a client and
// charged CPU, and the clock moved on half a second. A hundred periods have
// run, so every callee has held a key once and steady periods allocate
// nothing in the hooks.
func sparseFleet(tb testing.TB, n int) (p *Profiler, period func()) {
	tb.Helper()
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	p = New(k, c, rt)
	refs := make([]actor.Ref, n)
	for i := range refs {
		refs[i] = rt.SpawnOn("Worker", actor.BehaviorFunc(func(*actor.Context, actor.Message) {}), cluster.MachineID(i%4))
	}
	next := 0
	period = func() {
		p.Reset()
		for i := next % 100; i < n; i += 100 {
			srv := cluster.MachineID(i % 4)
			p.OnMessage(srv, actor.ClientCaller, actor.Ref{}, refs[i], "Worker", "tick", 64)
			p.OnCPU(srv, refs[i], "Worker", sim.Millisecond)
		}
		next++
		k.Run(k.Now() + sim.Time(500*sim.Millisecond))
	}
	for i := 0; i < 100; i++ {
		period()
		p.Snapshot(nil)
	}
	return p, period
}

// BenchmarkSnapshotSparse is a fleet_control-sized fleet, 131,072 actors,
// with 1% messaged each period, so a Snapshot refreshes that 1% and the 1%
// carried from the period before, not the fleet. Ceiling: one allocation
// per up server, plus one under -race (TestSparseSnapshotAllocCeiling).
func BenchmarkSnapshotSparse(b *testing.B) {
	p, period := sparseFleet(b, 131_072)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		period()
		b.StartTimer()
		if len(p.Snapshot(nil).Actors) != 131_072 {
			b.Fatal("snapshot lost actors")
		}
	}
}

// A sparse steady period costs what a steady one does: the hooks allocate
// nothing and Snapshot its ServerInfos, though a different 1% of the fleet
// is messaged every period and the carried 1% falls back to zero.
func TestSparseSnapshotAllocCeiling(t *testing.T) {
	p, period := sparseFleet(t, 16_384)
	if got := testing.AllocsPerRun(5, period); got != 0 {
		t.Errorf("sparse period's Reset and hooks: %.0f allocs, want 0", got)
	}
	ceiling := float64(len(p.c.UpMachines()) + 1)
	if got := testing.AllocsPerRun(5, func() { period(); p.Snapshot(nil) }); got > ceiling {
		t.Errorf("sparse Snapshot: %.0f allocs, ceiling %.0f", got, ceiling)
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
	for id := range p.acct {
		if p.acct[id].unsorted {
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
