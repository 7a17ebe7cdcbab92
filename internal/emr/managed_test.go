package emr

import (
	"runtime"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

// managedFleet is fleet_control at an eighth of its size, with a faulty
// control plane: 16,384 Workers on 128 servers, 16 of them spare, every
// Worker self-messaging on a 2 s cycle, and one sixteenth of the fleet hot,
// the hot group moving on every ten periods. Four GEMs balance a 30–70 cpu
// band every 500 ms while a tenth of the control messages are duplicated,
// a fifth delayed by up to 5 ms and one in twenty dropped, so every period
// REPORTs (and retransmits), evaluates, RREPLYs, resolves, QUERYs (and
// times out) and migrates.
type managedFleet struct {
	k *sim.Kernel
	m *Manager
}

const managedPeriod = 500 * sim.Millisecond

func newManagedFleet() *managedFleet {
	const (
		size    = 16384
		servers = 128
		spares  = servers / 8
		used    = servers - spares
		cycle   = 2 * sim.Second
	)
	k := sim.New(1)
	c := cluster.New(k, servers, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)
	groups := used / spares
	hotGroup := 0
	k.Every(10*managedPeriod, func() bool {
		hotGroup = (hotGroup + 1) % groups
		return true
	})
	mkWorker := func(group int) actor.Behavior {
		return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			cost := 6 * sim.Millisecond
			if group == hotGroup {
				cost = 12 * sim.Millisecond
			}
			ctx.Use(cost)
			ctx.SendAfter(cycle-cost, ctx.Self(), "work", nil, 16)
		})
	}
	boot := actor.NewClient(rt, 0)
	for i := 0; i < size; i++ {
		srv := cluster.MachineID(i % used)
		ref := rt.SpawnOn("Worker", mkWorker(int(srv)/spares), srv)
		k.At(sim.Time(sim.Duration(i%int(cycle/sim.Millisecond)+1)*sim.Millisecond), func() {
			boot.Send(ref, "work", nil, 16)
		})
	}
	pol := epl.MustParse(`server.cpu.perc > 70 or server.cpu.perc < 30 => balance({Worker}, cpu);`)
	m := New(k, c, rt, prof, pol, Config{Period: managedPeriod, NumGEMs: 4, MinResidence: managedPeriod})
	inj := chaos.NewInjector(1, k.Now)
	inj.SetAllFaults(chaos.Faults{DropProb: 0.05, DupProb: 0.1, DelayProb: 0.2, MaxDelay: 5 * sim.Millisecond})
	m.SetChaos(inj)
	m.Start()
	return &managedFleet{k: k, m: m}
}

// periods runs n more elasticity periods.
func (f *managedFleet) periods(n int) {
	f.k.Run(f.k.Now() + sim.Time(sim.Duration(n)*managedPeriod))
}

// A steady-state period of the whole managed world — the EPR window, both
// rule passes, the control plane and the migrations it starts, and the
// Workers' own traffic — allocates at most a tenth of what it did when every
// period built its action lists, conflict maps, GEM views and one closure
// per control message afresh: 269 KB and 1,760 allocs per period there.
// What is left is the profiler's per-server rows, the rule passes' intents
// and the actor runtime's migration records.
func TestManagedPeriodAllocCeiling(t *testing.T) {
	f := newManagedFleet()
	f.periods(8)
	before := f.m.Stats
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	const n = 20
	f.periods(n)
	runtime.ReadMemStats(&ms1)
	s := f.m.Stats
	if s.Ticks-before.Ticks != n || s.ExecutedMigrations == before.ExecutedMigrations ||
		s.RetriedReports == before.RetriedReports || s.QueryTimeouts == before.QueryTimeouts {
		t.Fatalf("the measured periods exercise too little: %+v, before them %+v", s, before)
	}
	perPeriod := (ms1.TotalAlloc - ms0.TotalAlloc) / n
	allocs := (ms1.Mallocs - ms0.Mallocs) / n
	t.Logf("one period: %d KB, %d allocs; %d migrations in %d periods", perPeriod>>10, allocs,
		s.ExecutedMigrations-before.ExecutedMigrations, n)
	if perPeriod > 26<<10 {
		t.Fatalf("one period allocates %d KB, ceiling 26 KB", perPeriod>>10)
	}
}

// BenchmarkManagedPeriod times one elasticity period of the managed fleet,
// Workers' traffic included.
//
//	go test ./internal/emr -run '^$' -bench ManagedPeriod -benchmem
func BenchmarkManagedPeriod(b *testing.B) {
	f := newManagedFleet()
	f.periods(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.periods(1)
	}
}
