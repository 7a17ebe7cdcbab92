package emr

import (
	"math/rand"
	"slices"
	"testing"

	"plasma/internal/actor"
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
// construction excluded (it happens once, outside b.N). 131k_1k_4gem is one
// period of fleet_control's control plane (fleetBench).
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
	fb := newFleetBench()
	b.Run("131k_1k_4gem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fb.period()
		}
	})
}

// fleetBench is the decision bench reshaped like fleet_control's control
// plane: 131,072 actors on 1,025 servers, no affinity edges (its Workers
// message only themselves), one cpu band 30–70, and four GEMs each planning
// over its own view of one snapshot — five eighths of the fleet, overlapping.
type fleetBench struct {
	db     *DecisionBench
	scopes [4][]*epl.ServerInfo
	views  [4]epl.Snapshot // each GEM's view, refilled every period
	acts   []Action
}

func newFleetBench() *fleetBench {
	db := NewDecisionBench(131072, 1025)
	for _, ai := range db.snap.Actors {
		ai.Calls = nil
	}
	db.in = &epl.Intents{Balance: []epl.BalanceIntent{{Types: []string{"W"}, Res: epl.CPU, Upper: 70, Lower: 30}}}
	fb := &fleetBench{db: db}
	for g := range fb.scopes {
		for i, srv := range db.snap.Servers {
			if (i+g)%8 < 5 {
				fb.scopes[g] = append(fb.scopes[g], srv)
			}
		}
	}
	return fb
}

// period runs one period's four rounds: the snapshot is re-indexed, as the
// profiler's next one would be, and each GEM plans over its view of it.
// It returns the actions planned.
func (fb *fleetBench) period() (acts int) {
	snap := fb.db.snap.Index()
	for g, sc := range fb.scopes {
		fb.acts, _, _, _, _ = fb.db.m.planResource(fb.acts[:0], nil, fb.views[g].ViewOf(snap, sc), fb.db.in, 0, 0)
		acts += len(fb.acts)
	}
	return acts
}

// The round's steady-state allocation ceiling at the quick decision-bench
// size. The per-intent greedy loop it replaced read 677 allocs / 0.74 MB per
// round here, the first batch round 80,281 / 12.3 MB (a map-of-maps affinity
// graph rebuilt every round), and a round returning a fresh action slice
// 36 / 417 KB. The round's scratch lives on the Manager and its actions go
// into the caller's buffer, so it allocates nothing. AllocsPerRun counts
// every allocation in the process, and averages over its runs a stray one
// the runtime makes now and then.
func TestPlanRoundAllocCeiling(t *testing.T) {
	db := NewDecisionBench(65536, 256)
	if db.Run("") == 0 {
		t.Fatal("degenerate synthetic fleet: no actions")
	}
	if allocs := testing.AllocsPerRun(4, func() { db.Run("") }); allocs != 0 {
		t.Fatalf("one round allocates %.0f objects, want none", allocs)
	}
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
		if acts, _, _, _, _ := pe.m.planResource(nil, nil, snap, in, 0, 0); len(acts) != 0 {
			t.Fatalf("in-band fleet planned %+v", acts)
		}
	})
	if aff, buckets := pe.m.rd.affGen == snap.Gen(), pe.m.rd.bucketGen == snap.Gen(); aff || buckets {
		t.Fatalf("in-band round built affinity=%v buckets=%v", aff, buckets)
	}
	if allocs != 0 {
		t.Fatalf("in-band round allocates %.0f objects per round, want 0", allocs)
	}
}

// A period's GEMs plan over views (ViewOf) of one snapshot, and the
// per-server buckets and the affinity graph are built by the first of their
// rounds only: after it, an actor is moved and its traffic dropped behind
// the snapshot's back, and the next three rounds still see it where the
// first one bucketed it, with its old edge. Re-indexing the same
// *Snapshot — as the profiler does with its one snapshot every period —
// invalidates both, and the next round sees the move.
func TestPeriodIndexSharedAndInvalidated(t *testing.T) {
	pe := newPlanEnv(t, 3)
	peer := mkActor(pe, "P", 2, 5)
	x := mkActor(pe, "W", 0, 30)
	x.Calls = []epl.CallStat{{CallerType: "P", Caller: peer.Ref, Method: "m", Count: 9}}
	actors := []*epl.ActorInfo{peer, x, mkActor(pe, "W", 0, 20), mkActor(pe, "W", 0, 20), mkActor(pe, "W", 1, 20)}
	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {30, 0, 0}, {40, 0, 0}}, actors)
	in := &epl.Intents{Balance: []epl.BalanceIntent{{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}}}
	rd := &pe.m.rd
	has := func(list []*epl.ActorInfo, ai *epl.ActorInfo) bool { return slices.Contains(list, ai) }

	for g := 0; g < 4; g++ {
		if acts, _, _, _, _ := pe.m.planResource(nil, nil, within(snap, scope(3)), in, 0, 0); len(acts) == 0 {
			t.Fatalf("round %d over an overloaded server planned nothing", g)
		}
		if rd.bucketGen != snap.Gen() || rd.affGen != snap.Gen() {
			t.Fatalf("round %d: buckets of generation %d, affinity of %d, snapshot is %d", g, rd.bucketGen, rd.affGen, snap.Gen())
		}
		if g == 0 {
			x.Server, x.Calls = 1, nil
		}
		if !has(rd.residents(0), x) || has(rd.residents(1), x) || len(rd.peers(x.Ref.ID)) != 1 {
			t.Fatalf("round %d rebuilt the period's index: server 0 holds x %v, x's peers %v", g, has(rd.residents(0), x), rd.peers(x.Ref.ID))
		}
	}

	gen := snap.Gen()
	snap.Index()
	if snap.Gen() == gen {
		t.Fatal("Index() kept the snapshot's generation")
	}
	pe.m.planResource(nil, nil, within(snap, scope(3)), in, 0, 0)
	if has(rd.residents(0), x) || !has(rd.residents(1), x) || len(rd.peers(x.Ref.ID)) != 0 {
		t.Fatalf("after Index() the round still sees x on server 0 (%v) or its dropped edge %v", has(rd.residents(0), x), rd.peers(x.Ref.ID))
	}
}

// TestResidentsMatchMapGrouping holds round.residents to a map from server to
// its actors in snapshot order, over two generations of one snapshot: servers
// 0-7 are up, two of them hold no actor, and one actor sits on server 12,
// beyond every up server. Between the generations a quarter of the actors
// move, the server-12 one among them, and one lands on server 15: a round
// that kept the first generation's buckets fails the second comparison.
func TestResidentsMatchMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	snap := &epl.Snapshot{}
	for i := 0; i < 8; i++ {
		snap.Servers = append(snap.Servers, &epl.ServerInfo{ID: cluster.MachineID(i)})
	}
	occupied := []cluster.MachineID{0, 2, 4, 5, 6, 7} // 1 and 3 hold no actor
	for i := 0; i < 200; i++ {
		srv := occupied[rng.Intn(len(occupied))]
		if i == 50 {
			srv = 12
		}
		snap.Actors = append(snap.Actors, &epl.ActorInfo{Ref: actor.Ref{ID: actor.ID(i + 1)}, Server: srv})
	}
	rd := &round{}
	compare := func(gen int) {
		t.Helper()
		want := map[cluster.MachineID][]*epl.ActorInfo{}
		for _, ai := range snap.Actors {
			want[ai.Server] = append(want[ai.Server], ai)
		}
		for srv := cluster.MachineID(0); srv < 20; srv++ {
			if got := rd.residents(srv); !slices.Equal(got, want[srv]) {
				t.Fatalf("generation %d, server %d: residents %d actors, the map %d (or another order)", gen, srv, len(got), len(want[srv]))
			}
		}
	}
	rd.snap = snap.Index()
	compare(1)
	for i, ai := range snap.Actors {
		switch {
		case i == 50:
			ai.Server = 3
		case i == 120:
			ai.Server = 15
		case rng.Intn(4) == 0:
			ai.Server = cluster.MachineID(rng.Intn(8))
		}
	}
	rd.snap = snap.Index()
	compare(2)
}

// fleetBench's steady-state allocation ceiling, one period of four rounds.
// It read 96 allocs / 2,257 KB when the rounds first shared the period's
// buckets and affinity, the four views' server indexes and the 7,998
// planned actions' slices being what was left. Each GEM now refills its own
// view and plans into a reused buffer, so the period allocates nothing. It
// takes 15 ms; rounds that each built their own index took 54 ms
// (BenchmarkPlannerDecision/131k_1k_4gem).
func TestFleetPeriodAllocCeiling(t *testing.T) {
	fb := newFleetBench()
	if fb.period() == 0 {
		t.Fatal("degenerate fleet: no actions")
	}
	if allocs := testing.AllocsPerRun(4, func() { fb.period() }); allocs != 0 {
		t.Fatalf("one period allocates %.0f objects, want none", allocs)
	}
}
