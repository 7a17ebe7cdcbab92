package profile

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// The persistent call table against the per-window log, over 24 seeded
// windows that do everything a table kept across windows could get wrong:
// callers go quiet and come back, new callers show up after a mid-window
// snapshot has sorted the table, a hub callee's fan-in swings across
// promoteAt in both directions, one method name arrives as two distinct
// string values, clients (Caller.ID == 0) call beside actors, and actors
// are stopped between windows. Every snapshot must equal the naive
// reference and hold no zero-count CallStat; after every Reset each table
// must be within the bound Reset states and consistent with its index.
func TestCallTableMatchesLogAcrossWindows(t *testing.T) {
	const windows, fleet, hubQuiet, hubBusy = 24, 40, 3, 30
	k := sim.New(3)
	c := cluster.New(k, 3, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	h := &logHook{Profiler: New(k, c, rt)}
	rt.SetProfiler(h)
	p := h.Profiler
	rng := rand.New(rand.NewSource(11))

	types := []string{"Hub", "Leaf", "Relay"}
	refs := make([]actor.Ref, fleet)
	typeOf := map[actor.Ref]string{{}: actor.ClientCaller}
	for i := range refs {
		typ := types[0]
		if i > 0 {
			typ = types[1+i%2]
		}
		refs[i] = rt.SpawnOn(typ, actor.BehaviorFunc(func(*actor.Context, actor.Message) {}), cluster.MachineID(i%3))
		typeOf[refs[i]] = typ
	}
	hub := refs[0]
	// "push" reaches the hooks as a literal and as a copy with its own bytes.
	methods := []string{"push", strings.Clone("push"), "pull", "tick"}

	send := func(caller, callee actor.Ref) {
		if (!caller.Zero() && !rt.Exists(caller)) || !rt.Exists(callee) {
			return
		}
		srv := rt.ServerOf(callee)
		h.OnMessage(srv, typeOf[caller], caller, callee, typeOf[callee], methods[rng.Intn(len(methods))], int64(1+rng.Intn(512)))
		h.OnCPU(srv, callee, typeOf[callee], sim.Duration(1+rng.Intn(1000))*sim.Microsecond)
		if rng.Intn(4) == 0 {
			h.OnNet(srv, callee, typeOf[callee], int64(rng.Intn(256)))
		}
	}
	// half sends one half-window of traffic: the hub hears from its first
	// fanin peers, every other actor from a few random ones, and now and
	// then a client calls.
	half := func(fanin int) {
		for i := 1; i <= fanin; i++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				send(refs[i], hub)
			}
		}
		for _, callee := range refs[1:] {
			if rng.Intn(3) == 0 {
				continue // quiet this half
			}
			for n := rng.Intn(6); n > 0; n-- {
				send(refs[rng.Intn(fleet)], callee)
			}
			if rng.Intn(5) == 0 {
				send(actor.Ref{}, callee)
			}
		}
	}
	check := func(w int, when string) {
		t.Helper()
		snap := h.Snapshot(nil)
		requireMatchesNaive(t, h, snap)
		for _, a := range snap.Actors {
			for _, cs := range a.Calls {
				if cs.Count <= 0 {
					t.Fatalf("window %d %s: %v reports a zero-count call %+v", w, when, a.Ref, cs)
				}
			}
		}
	}

	var sawIndexed, sawLinearAfterIndexed, sawIndexedAgain bool
	for w := 1; w <= windows; w++ {
		fanin := hubQuiet
		if (w/3)%2 == 1 {
			fanin = hubBusy
		}
		half(fanin)
		k.Run(k.Now() + sim.Time(500*sim.Millisecond))
		check(w, "mid-window")
		// The second half brings callers the mid-window sort has not seen.
		half(fanin + 2)
		k.Run(k.Now() + sim.Time(500*sim.Millisecond))
		check(w, "at the period")

		live := naiveCalls(h.log) // what the window's log says was live, per callee
		h.Reset()
		h.log = h.log[:0]

		held := 0
		for id := range p.calls {
			cc := &p.calls[id]
			held += len(cc.recs)
			if n := len(live[actor.Ref{ID: actor.ID(id)}]); len(cc.recs) > 2*n {
				t.Fatalf("window %d: callee %d holds %d keys after Reset, %d were live (bound 2x)", w, id, len(cc.recs), n)
			}
			if (cc.idx != nil) != (len(cc.recs) > promoteAt) {
				t.Fatalf("window %d: callee %d has %d keys and idx %v", w, id, len(cc.recs), cc.idx != nil)
			}
			for j, r := range cc.recs {
				if r.count != 0 || cc.find(p.names, p.names[r.ctype], r.caller, p.names[r.method]) != j {
					t.Fatalf("window %d: callee %d record %d not zeroed or not findable after Reset", w, id, j)
				}
			}
		}
		if held != p.callRecs {
			t.Fatalf("window %d: callRecs = %d, tables hold %d", w, p.callRecs, held)
		}
		// The held set is exactly the full walk's non-empty tables.
		ids, listedRecs := heldIDs(p), 0
		for _, id := range ids {
			if len(p.calls[id].recs) == 0 {
				t.Fatalf("window %d: callee %d held with an empty table", w, id)
			}
			listedRecs += len(p.calls[id].recs)
		}
		for id := range p.calls {
			if len(p.calls[id].recs) > 0 && !slices.Contains(ids, id) {
				t.Fatalf("window %d: callee %d holds %d keys but is not in the held set", w, id, len(p.calls[id].recs))
			}
		}
		if listedRecs != p.callRecs {
			t.Fatalf("window %d: held tables hold %d keys, callRecs = %d", w, listedRecs, p.callRecs)
		}
		switch indexed := p.calls[hub.ID].idx != nil; {
		case indexed && sawLinearAfterIndexed:
			sawIndexedAgain = true
		case indexed:
			sawIndexed = true
		case sawIndexed:
			sawLinearAfterIndexed = true
		}

		if w%5 == 0 { // stop a leaf between windows; its table must drain
			rt.Stop(refs[fleet-w/5])
		}
	}
	if !sawIndexedAgain {
		t.Fatalf("the hub never crossed promoteAt up, down and up again (indexed %v, then linear %v)", sawIndexed, sawLinearAfterIndexed)
	}
	if len(p.names) != len(types)+1+3 {
		t.Fatalf("name table = %q, want the 3 types, client and 3 methods once each", p.names)
	}
}

// heldIDs lists the callees in the held set, in id order: the tables Reset
// visits.
func heldIDs(p *Profiler) []int {
	var ids []int
	for id := range p.calls {
		if p.held[id/64]&(1<<(id%64)) != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// Reset walks the callees whose tables hold keys, not every actor id: of
// 100,000 spawned actors, the 100 that were messaged are all it visits, and
// a quiet window later, with their tables evicted, it visits none.
func TestResetSkipsIdleCallees(t *testing.T) {
	const fleet, called = 100_000, 100
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	p := New(k, c, rt)
	nop := actor.BehaviorFunc(func(*actor.Context, actor.Message) {})
	refs := make([]actor.Ref, fleet)
	for i := range refs {
		refs[i] = rt.SpawnOn("W", nop, cluster.MachineID(i%4))
	}
	for i := 0; i < called; i++ {
		callee := refs[i*(fleet/called)]
		for n := 0; n < 3; n++ { // repeat keys: one listing per callee
			p.OnMessage(rt.ServerOf(callee), "W", refs[i], callee, "W", "m", 64)
		}
	}
	if visits := len(heldIDs(p)); len(p.calls) < fleet || visits > 2*called {
		t.Fatalf("%d call tables, Reset would visit %d; want ≥ %d tables and ≤ %d visits", len(p.calls), visits, fleet, 2*called)
	}
	p.Reset()
	if visits := len(heldIDs(p)); visits != called || p.callRecs != called {
		t.Fatalf("after a busy window %d callees held, %d keys; want %d each", visits, p.callRecs, called)
	}
	p.Reset()
	if visits := len(heldIDs(p)); visits != 0 || p.callRecs != 0 {
		t.Fatalf("after a quiet window %d callees held, %d keys; want none", visits, p.callRecs)
	}
}
