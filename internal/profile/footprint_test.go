package profile

import (
	"math/rand"
	"testing"
	"unsafe"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// An actor's accumulators are one cache line: see the comment on acct.
func TestAcctLayout(t *testing.T) {
	if got := unsafe.Sizeof(acct{}); got != 64 {
		t.Errorf("acct is %d bytes, want 64: see the layout comment on acct", got)
	}
}

// The profiler's per-actor state tracks the fleet: after 131,072 spawns (ids
// 0 to 131,072 issued) and one Snapshot, the snapshot rows cover those ids
// rounded up to whole bitmap words, and the accumulators and their bitmaps
// hold at most a quarter more, plus a word. Doubling kept up to twice the
// ids in both.
func TestProfilerFootprint(t *testing.T) {
	const fleet = 131_072
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	p := New(k, c, rt)
	nop := actor.BehaviorFunc(func(*actor.Context, actor.Message) {})
	for i := 0; i < fleet; i++ {
		rt.SpawnOn("W", nop, cluster.MachineID(i%4))
	}
	if got := len(p.Snapshot(nil).Actors); got != fleet {
		t.Fatalf("snapshot lists %d actors, want %d", got, fleet)
	}
	ids := fleet + 1
	rowsMax := (ids + 63) &^ 63
	acctMax := ids + ids/4 + 64
	if cap(p.rows) > rowsMax {
		t.Errorf("cap(rows) = %d for %d ids, want ≤ %d", cap(p.rows), ids, rowsMax)
	}
	if cap(p.acct) > acctMax {
		t.Errorf("cap(acct) = %d for %d ids, want ≤ %d", cap(p.acct), ids, acctMax)
	}
	for name, words := range map[string][]uint64{"held": p.held, "marks": p.marks, "meta": p.meta} {
		if 64*cap(words) > acctMax {
			t.Errorf("%s covers %d ids, want ≤ %d", name, 64*cap(words), acctMax)
		}
	}
}

// Reset zeroes only the rows the usage marks name. After random hook
// traffic — to stopped actors too, whose last turn can complete after Stop —
// interleaved with snapshots and stops, every accumulator reads zero after
// Reset, as a clear of every row would leave it.
func TestMarkedResetClearsEveryRow(t *testing.T) {
	const fleet = 1_000
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	p := New(k, c, rt)
	nop := actor.BehaviorFunc(func(*actor.Context, actor.Message) {})
	refs := make([]actor.Ref, fleet)
	for i := range refs {
		refs[i] = rt.SpawnOn("W", nop, cluster.MachineID(i%4))
	}
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < 50; w++ {
		for op := 0; op < 500; op++ {
			a := refs[rng.Intn(fleet)]
			srv := cluster.MachineID(rng.Intn(4))
			switch rng.Intn(8) {
			case 0, 1, 2:
				p.OnMessage(srv, "W", refs[rng.Intn(fleet)], a, "W", "m", rng.Int63n(512))
			case 3, 4:
				p.OnCPU(srv, a, "W", sim.Duration(1+rng.Intn(1000)))
			case 5:
				p.OnNet(srv, a, "W", 1+rng.Int63n(512))
			case 6:
				p.Snapshot(nil)
			case 7:
				if rng.Intn(10) == 0 {
					rt.Stop(a)
				}
			}
		}
		if rng.Intn(2) == 0 {
			p.Snapshot(nil)
		}
		p.Reset()
		for id := range p.acct {
			a := &p.acct[id]
			if a.cpu != 0 || a.net != 0 || a.live != 0 {
				t.Fatalf("window %d: actor %d reads cpu %d, net %d, %d live keys after Reset", w, id, a.cpu, a.net, a.live)
			}
			for _, r := range a.recs {
				if r.count != 0 || r.bytes != 0 {
					t.Fatalf("window %d: actor %d keeps a call record %+v after Reset", w, id, r)
				}
			}
		}
	}
}
