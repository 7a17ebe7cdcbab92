package emr

import (
	"runtime"
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/epl"
)

// The decision bench is itself under the determinism gate (plasma-bench
// -compare diffs its action count at fixed sizes), so pin the properties
// that gate relies on: repeated runs are identical, and the round produces
// work on the synthetic fleet.
func TestDecisionBenchDeterministic(t *testing.T) {
	db := NewDecisionBench(2048, 32)
	first := db.Run("")
	if first == 0 {
		t.Fatal("degenerate synthetic fleet: no actions")
	}
	for i := 0; i < 3; i++ {
		if n := db.Run(""); n != first {
			t.Fatalf("run %d planned %d actions, first run planned %d", i, n, first)
		}
	}
}

// BenchmarkPlannerDecision times one GEM decision round. The 1M_1k case is
// the tentpole scale: a million actors on a thousand servers, snapshot
// construction excluded (it happens once, outside b.N).
//
//	go test ./internal/emr -bench PlannerDecision -benchtime 3x -run ^$
func BenchmarkPlannerDecision(b *testing.B) {
	cases := []struct {
		name            string
		actors, servers int
	}{
		{"64k_256", 65536, 256},
		{"1M_1k", 1_000_000, 1000},
	}
	for _, tc := range cases {
		db := NewDecisionBench(tc.actors, tc.servers)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.Run("")
			}
		})
	}
}

// The round's steady-state allocation ceiling at the quick decision-bench
// size. The per-intent greedy loop it replaced read 677 allocs / 0.74 MB per
// round here and the first batch round 80,281 / 12.3 MB (a map-of-maps
// affinity graph rebuilt every round); the round's scratch lives on the
// Manager, so what is left is the action slice.
func TestPlanRoundAllocCeiling(t *testing.T) {
	db := NewDecisionBench(65536, 256)
	if db.Run("") == 0 {
		t.Fatal("degenerate synthetic fleet: no actions")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db.Run("")
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if allocs > 1000 || bytes > 1500<<10 {
		t.Fatalf("one round allocated %d objects / %d KB, ceiling 1,000 / 1,500 KB", allocs, bytes>>10)
	}
	t.Logf("one round: %d allocs, %d KB", allocs, bytes>>10)
}

// A round that finds every server inside every band builds neither the
// affinity graph nor the per-server buckets, and allocates nothing at all
// once its scratch exists.
func TestPlanRoundInBandAllocatesNothing(t *testing.T) {
	pe := newPlanEnv(t, 4)
	var actors []*epl.ActorInfo
	for i := 0; i < 16; i++ {
		ai := mkActor(pe, "W", cluster.MachineID(i%4), 15)
		if i > 0 {
			ai.Calls = []epl.CallStat{{CallerType: "W", Caller: actors[i-1].Ref, Method: "m", Count: 9}}
		}
		actors = append(actors, ai)
	}
	snap := buildSnapVec(pe, [][3]float64{{70, 65, 0}, {72, 70, 0}, {68, 75, 0}, {75, 62, 0}}, actors)
	in := &epl.Intents{Balance: []epl.BalanceIntent{
		{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60},
		{Types: []string{"W"}, Res: epl.Mem, Upper: 80, Lower: 60},
	}}
	allocs := testing.AllocsPerRun(5, func() {
		if acts, _, _, _, _ := pe.m.planResource(nil, snap, in, 0, 0); len(acts) != 0 {
			t.Fatalf("in-band fleet planned %+v", acts)
		}
	})
	if pe.m.rd.affBuilt || pe.m.rd.bucketed {
		t.Fatalf("in-band round built affinity=%v buckets=%v", pe.m.rd.affBuilt, pe.m.rd.bucketed)
	}
	if allocs != 0 {
		t.Fatalf("in-band round allocates %.0f objects per round, want 0", allocs)
	}
}
