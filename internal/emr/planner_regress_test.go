package emr

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/epl"
)

// Regression tests for the planner band-math fixes, plus coverage for the
// colocation group anchoring rules.

// A balance rule with a tight band ([60,70]: band width 10) must still be
// able to low-water redistribute: server 0 sits at 66 (above the band
// midpoint), server 1 at 54 (below lower), and moving the 6-point actor
// equalizes the pair. The legacy thresholds were absolute (probe lower-5,
// spread > 15), so any band narrower than ~15 points could never fill its
// deficit.
func TestDeficitFillActsOnTightBand(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{
		mkActor(pe, "W", 0, 6), mkActor(pe, "W", 0, 3),
	}
	snap := buildSnap(pe, []float64{66, 54}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 70, Lower: 60}
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(2))
	if len(acts) == 0 {
		t.Fatal("tight-band rule never low-water redistributed")
	}
	for _, a := range acts {
		if a.Src != 0 || a.Trg != 1 {
			t.Fatalf("action %+v, want move from loaded server 0 to starved server 1", a)
		}
	}
}

// The band-relative thresholds must reduce to the legacy constants (probe 5
// below lower, spread > 15) on the standard 20-point band, so every shipped
// policy plans identically: a [60,80] pair at spread 12 stays quiet.
func TestDeficitFillWideBandKeepsLegacyThresholds(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{
		mkActor(pe, "W", 0, 6), mkActor(pe, "W", 0, 3),
	}
	snap := buildSnap(pe, []float64{71, 59}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(2))
	if len(acts) != 0 {
		t.Fatalf("20-point band acted on a 12-point spread: %+v", acts)
	}
}

// A source that sheds every movable candidate and still sits above the upper
// bound is unresolved overload: it must report scale-out pressure. The
// legacy check only fired when the candidate list was empty to begin with.
func TestPlanBalanceWantOutAfterSheddingAllCandidates(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{mkActor(pe, "W", 0, 5)}
	snap := buildSnap(pe, []float64{95, 50}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, wantOut, _ := pe.planBalance(bi, snap, scope(2))
	if len(acts) != 1 {
		t.Fatalf("actions = %+v, want the single candidate shed", acts)
	}
	if !wantOut {
		t.Fatal("source shed everything, remains at 90 > 80, yet reported no scale-out pressure")
	}
}

// A source brought back inside the band by its sheds is resolved: no
// scale-out pressure.
func TestPlanBalanceNoWantOutWhenShedsResolve(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{mkActor(pe, "W", 0, 20)}
	snap := buildSnap(pe, []float64{95, 30}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, wantOut, _ := pe.planBalance(bi, snap, scope(2))
	if len(acts) != 1 {
		t.Fatalf("actions = %+v, want one shed", acts)
	}
	if wantOut {
		t.Fatal("source re-entered the band yet reported scale-out pressure")
	}
}

// planReserve's target choice is lexicographic (load, resident count): a
// truly idle server with a few cold residents beats a resident-free server
// carrying real load. (The greedy planner summed the utilization percentage
// with the raw actor count, so 3 idle actors outweighed 2.9 points of load.)
func TestPlanReservePrefersLeastLoadedOverFewestResidents(t *testing.T) {
	pe := newPlanEnv(t, 3)
	vip := mkActor(pe, "V", 0, 30)
	// Server 1: zero load, three idle residents. Server 2: 2.9% load, empty.
	idle := []*epl.ActorInfo{
		mkActor(pe, "I", 1, 0), mkActor(pe, "I", 1, 0), mkActor(pe, "I", 1, 0),
	}
	snap := buildSnap(pe, []float64{90, 0, 2.9}, append(idle, vip))
	ri := epl.ReserveIntent{Actor: vip.Ref, Res: epl.CPU}
	act, starved := pe.planReserve(ri, snap, scope(3))
	if act == nil || starved {
		t.Fatalf("act=%v starved=%v, want action/false", act, starved)
	}
	if act.Trg != 1 {
		t.Fatalf("reserved server %d, want the zero-load server 1", act.Trg)
	}
}

// On equal load the resident count breaks the tie, and on a full tie the
// lowest server id wins (snapshot servers iterate in id order).
func TestPlanReserveCountThenIDTiebreak(t *testing.T) {
	pe := newPlanEnv(t, 4)
	vip := mkActor(pe, "V", 0, 30)
	resident := mkActor(pe, "I", 1, 0)
	snap := buildSnap(pe, []float64{90, 0, 0, 0}, []*epl.ActorInfo{vip, resident})
	ri := epl.ReserveIntent{Actor: vip.Ref, Res: epl.CPU}
	act, _ := pe.planReserve(ri, snap, scope(4))
	if act == nil || act.Trg != 2 {
		t.Fatalf("act=%+v, want server 2 (same load as 3, fewer residents than 1, lowest id)", act)
	}
}

// groupAnchor mass fallback: equal resident state on two servers anchors at
// the lowest server id.
func TestGroupAnchorMassTieGoesToLowestServerID(t *testing.T) {
	pe := newPlanEnv(t, 3)
	a := mkActor(pe, "A", 2, 10)
	a.MemBytes = 1 << 20
	b := mkActor(pe, "B", 1, 10)
	b.MemBytes = 1 << 20
	dest, anchor := pe.m.groupAnchor([]*epl.ActorInfo{a, b}, map[actor.Ref]Action{})
	if dest != 1 || anchor != b.Ref {
		t.Fatalf("dest=%d anchor=%v, want tie broken to lowest server id 1", dest, anchor)
	}
}

// A planned (committed) action on any member outranks a pinned member when
// choosing the group's home.
func TestGroupAnchorPlannedActionBeatsPinnedMember(t *testing.T) {
	pe := newPlanEnv(t, 3)
	a := mkActor(pe, "A", 0, 10)
	pinned := mkActor(pe, "B", 1, 10)
	pinned.Pinned = true
	planned := map[actor.Ref]Action{
		a.Ref: {Actor: a.Ref, Src: 0, Trg: 2, Pri: 45, Kind: epl.KindReserve},
	}
	dest, anchor := pe.m.groupAnchor([]*epl.ActorInfo{a, pinned}, planned)
	if dest != 2 || anchor != a.Ref {
		t.Fatalf("dest=%d anchor=%v, want the reserve destination 2", dest, anchor)
	}
}

// A member with its own committed higher-priority action is never dragged
// by the group: the rest follow the anchor, the committed member keeps its
// own destination.
func TestColocateGroupsCommittedMemberKeepsOwnAction(t *testing.T) {
	pe := newPlanEnv(t, 3)
	a := mkActor(pe, "A", 0, 5)
	b := mkActor(pe, "B", 1, 5)
	c := mkActor(pe, "C", 1, 5)
	snap := buildSnap(pe, []float64{10, 10, 10}, []*epl.ActorInfo{a, b, c})
	planned := map[actor.Ref]Action{
		b.Ref: {Actor: b.Ref, Src: 1, Trg: 2, Pri: 45, Kind: epl.KindReserve},
	}
	pairs := []epl.PairIntent{{A: a.Ref, B: b.Ref}, {A: b.Ref, B: c.Ref}}
	acts := pe.m.planColocateGroups(snap, pairs, planned)
	if len(acts) != 2 {
		t.Fatalf("actions = %+v, want a and c following the anchor", acts)
	}
	for _, act := range acts {
		if act.Actor == b.Ref {
			t.Fatalf("committed member b re-planned by colocate: %+v", act)
		}
		if act.Trg != 2 {
			t.Fatalf("follower sent to %d, want the anchor destination 2", act.Trg)
		}
	}
}

// Transitive merges are order-independent: the same pair set presented in
// reversed order yields the identical action list.
func TestColocateGroupsMergeOrderIndependent(t *testing.T) {
	pe := newPlanEnv(t, 4)
	a := mkActor(pe, "A", 0, 5)
	b := mkActor(pe, "B", 1, 5)
	c := mkActor(pe, "C", 2, 5)
	d := mkActor(pe, "D", 3, 5)
	snap := buildSnap(pe, []float64{10, 10, 10, 10}, []*epl.ActorInfo{a, b, c, d})
	fwd := []epl.PairIntent{{A: a.Ref, B: b.Ref}, {A: b.Ref, B: c.Ref}, {A: c.Ref, B: d.Ref}}
	rev := []epl.PairIntent{{A: c.Ref, B: d.Ref}, {A: b.Ref, B: c.Ref}, {A: a.Ref, B: b.Ref}}
	got1 := pe.m.planColocateGroups(snap, fwd, map[actor.Ref]Action{})
	got2 := pe.m.planColocateGroups(snap, rev, map[actor.Ref]Action{})
	if len(got1) != len(got2) {
		t.Fatalf("fwd=%+v rev=%+v", got1, got2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("merge order changed the plan: fwd[%d]=%+v rev[%d]=%+v", i, got1[i], i, got2[i])
		}
	}
}

// The paper's §3.3 policy (reserve the hot root, colocate children with
// their root, lower-only balance) on its minimal fleet: hot server 0 holds
// the root and its two children, server 1 is light, server 2 idle. The
// round reserves server 2 for the root; the root's load must leave server
// 0's projection, and balance must not send a child to server 1 in the same
// round — that move outranks the colocate that would have followed the root
// and leaves the family on three servers.
func TestPlanReserveHoldsOwnersFamily(t *testing.T) {
	pe := newPlanEnv(t, 3)
	c1 := mkActor(pe, "P", 0, 32)
	c2 := mkActor(pe, "P", 0, 32)
	root := mkActor(pe, "P", 0, 32)
	stranger := mkActor(pe, "P", 0, 4)
	for _, c := range []*epl.ActorInfo{c1, c2} {
		c.Calls = []epl.CallStat{{CallerType: "P", Caller: root.Ref, Method: "readChild", Count: 100}}
	}
	snap := buildSnap(pe, []float64{100, 19, 0}, []*epl.ActorInfo{c1, c2, root, stranger})
	in := &epl.Intents{
		Reserve: []epl.ReserveIntent{{Actor: root.Ref, Res: epl.CPU}},
		Balance: []epl.BalanceIntent{{Types: []string{"P"}, Res: epl.CPU, Upper: nan(), Lower: 50}},
	}
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(3)), in, 0, 0)
	if len(acts) == 0 || acts[0].Kind != epl.KindReserve || acts[0].Actor != root.Ref || acts[0].Trg != 2 {
		t.Fatalf("actions = %+v, want the root reserved onto idle server 2 first", acts)
	}
	for _, a := range acts[1:] {
		if a.Actor == c1.Ref || a.Actor == c2.Ref || a.Actor == root.Ref {
			t.Fatalf("balance planned %+v against a family the same round reserves elsewhere", a)
		}
	}
	// With the root's 32 points gone server 0 projects to 68: the stranger
	// still evens the pair out, so the hold is the only thing keeping the
	// children.
	if len(acts) != 2 || acts[1].Actor != stranger.Ref || acts[1].Trg != 1 {
		t.Fatalf("actions = %+v, want the stranger alone balanced onto server 1", acts)
	}
}

// Followers of a group anchored on a dedicated server are admitted only as
// partners of the reservation's owner, so the owner is the anchor even when
// a lower-id member sits there too.
func TestGroupAnchorOnDedicatedServerIsItsOwner(t *testing.T) {
	pe := newPlanEnv(t, 3)
	child := mkActor(pe, "P", 2, 10)
	stray := mkActor(pe, "P", 0, 10)
	root := mkActor(pe, "P", 2, 10)
	pe.m.srv(2).owner = root.Ref
	dest, anchor := pe.m.groupAnchor([]*epl.ActorInfo{child, stray, root}, map[actor.Ref]Action{})
	if dest != 2 || anchor != root.Ref {
		t.Fatalf("dest=%d anchor=%v, want server 2 anchored at its owner %v", dest, anchor, root.Ref)
	}
}
