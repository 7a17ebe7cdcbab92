package emr

import (
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/trace"
)

// buildSnapVec is buildSnap with full (cpu, mem, net) server vectors.
func buildSnapVec(pe *planEnv, servers [][3]float64, actors []*epl.ActorInfo) *epl.Snapshot {
	snap := &epl.Snapshot{At: pe.e.k.Now(), Window: 1}
	for i, v := range servers {
		snap.Servers = append(snap.Servers, &epl.ServerInfo{
			ID: cluster.MachineID(i), CPUPerc: v[0], MemPerc: v[1], NetPerc: v[2],
		})
	}
	snap.Actors = actors
	return snap.Index()
}

// setMem gives the actor a consistent memory share on the 4096 MB test
// machines (loadOn recomputes the target share from MemBytes).
func setMem(ai *epl.ActorInfo, pct float64) *epl.ActorInfo {
	ai.MemPerc = pct
	ai.MemBytes = int64(pct / 100 * 4096 * 1024 * 1024)
	return ai
}

// The batch round packs on all three axes: a target whose memory would
// cross the admission bound is rejected even if it is the quietest on the
// planned (CPU) axis — a single-axis planner would pick it and the move
// would die at admission a hop later.
func TestBatchTargetMustFitEveryAxis(t *testing.T) {
	pe := newPlanEnv(t, 3)
	mover := setMem(mkActor(pe, "W", 0, 20), 10)
	servers := [][3]float64{{95, 20, 0}, {30, 84, 0}, {50, 10, 0}}
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}

	snap := buildSnapVec(pe, servers, []*epl.ActorInfo{mover})
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(3)), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 0, 0)
	if len(acts) != 1 || acts[0].Trg != 2 {
		t.Fatalf("actions = %+v, want the mover on server 2 (server 1 memory would hit 94%%)", acts)
	}
}

// Among fitting targets the mover's communication affinity wins over
// projected load; with no profiled traffic the round falls back to the
// least-loaded choice.
func TestBatchTargetPrefersCommunicationAffinity(t *testing.T) {
	pe := newPlanEnv(t, 3)
	peer := mkActor(pe, "P", 2, 5)
	mover := mkActor(pe, "W", 0, 20)
	mover.Calls = []epl.CallStat{{CallerType: "P", Caller: peer.Ref, Method: "m", Count: 50}}
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}

	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {30, 0, 0}, {40, 0, 0}}, []*epl.ActorInfo{peer, mover})
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(3)), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 0, 0)
	if len(acts) != 1 || acts[0].Trg != 2 {
		t.Fatalf("actions = %+v, want the mover beside its peer on server 2", acts)
	}

	mover.Calls = nil
	snap = buildSnapVec(pe, [][3]float64{{95, 0, 0}, {30, 0, 0}, {40, 0, 0}}, []*epl.ActorInfo{peer, mover})
	acts, _, _, _, _ = pe.m.planResource(nil, within(snap, scope(3)), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 0, 0)
	if len(acts) != 1 || acts[0].Trg != 1 {
		t.Fatalf("actions = %+v, want the least-loaded server 1 without traffic", acts)
	}
}

// Later intents plan against the projection the earlier ones left behind:
// after intent A lands its mover on the quietest server, intent B's mover
// goes to the next-quietest instead of piling onto the same target.
func TestBatchIntentsShareOneProjection(t *testing.T) {
	pe := newPlanEnv(t, 4)
	a := mkActor(pe, "A", 0, 25)
	b := mkActor(pe, "B", 1, 25)
	in := &epl.Intents{Balance: []epl.BalanceIntent{
		{Types: []string{"A"}, Res: epl.CPU, Upper: 80, Lower: 60},
		{Types: []string{"B"}, Res: epl.CPU, Upper: 80, Lower: 60},
	}}
	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {95, 0, 0}, {30, 0, 0}, {40, 0, 0}}, []*epl.ActorInfo{a, b})
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(4)), in, 0, 0)
	if len(acts) != 2 {
		t.Fatalf("actions = %+v, want both movers placed", acts)
	}
	if acts[0].Actor != a.Ref || acts[0].Trg != 2 {
		t.Fatalf("first action %+v, want A on server 2", acts[0])
	}
	if acts[1].Actor != b.Ref || acts[1].Trg != 3 {
		t.Fatalf("second action %+v, want B pushed to server 3 by A's projected load", acts[1])
	}
}

// An actor planned by one intent is off the table for every later intent in
// the same round: overlapping rules yield one action, not conflicting ones.
func TestBatchNeverPlansAnActorTwice(t *testing.T) {
	pe := newPlanEnv(t, 2)
	w := mkActor(pe, "W", 0, 20)
	in := &epl.Intents{Balance: []epl.BalanceIntent{
		{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60},
		{Types: []string{"W"}, Res: epl.CPU, Upper: 70, Lower: 50},
	}}
	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {30, 0, 0}}, []*epl.ActorInfo{w})
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(2)), in, 0, 0)
	if len(acts) != 1 {
		t.Fatalf("actions = %+v, want the shared actor planned exactly once", acts)
	}
}

// Every round leaves one plan-batch record summarizing the moves and
// the residual band pressure.
func TestBatchRoundEmitsPlanBatchRecord(t *testing.T) {
	pe := newPlanEnv(t, 3)
	ring := trace.NewRing(1 << 10)
	pe.m.SetTracer(trace.New(ring))
	w := mkActor(pe, "W", 0, 20)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {30, 0, 0}, {40, 0, 0}}, []*epl.ActorInfo{w})
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(3)), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 7, 3)
	if len(acts) != 1 {
		t.Fatalf("actions = %+v", acts)
	}
	var rec *trace.Record
	for _, r := range ring.Records() {
		if r.Kind == trace.KindPlanBatch {
			r := r
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("no plan-batch record emitted")
	}
	if rec.Parent != 7 || rec.Tick != 3 {
		t.Fatalf("record %+v, want parent 7 tick 3", rec)
	}
	if rec.Value != 1 || !strings.Contains(rec.Detail, "moves=1") || !strings.Contains(rec.Detail, "dsts=1") {
		t.Fatalf("record %+v, want one move to one destination summarized", rec)
	}
}

// A colocation group with internal traffic anchors where that traffic
// already lands, not where the most state sits; without traffic the mass
// rule decides.
func TestGroupAnchorFollowsIntraGroupTraffic(t *testing.T) {
	pe := newPlanEnv(t, 3)
	a := mkActor(pe, "A", 1, 5)
	a.MemBytes = 1 << 30 // the mass rule would anchor on server 1
	b := mkActor(pe, "B", 2, 5)
	c := mkActor(pe, "C", 2, 5)
	c.Calls = []epl.CallStat{
		{CallerType: "A", Caller: a.Ref, Method: "m", Count: 10},
		{CallerType: "B", Caller: b.Ref, Method: "m", Count: 2},
	}
	members := []*epl.ActorInfo{a, b, c}

	dest, anchor := pe.m.groupAnchor(members, map[actor.Ref]Action{})
	if dest != 2 {
		t.Fatalf("dest = %d, want the traffic home server 2", dest)
	}
	if anchor != b.Ref {
		t.Fatalf("anchor = %v, want the first resident member %v", anchor, b.Ref)
	}

	// No intra-group traffic: affinity abstains, mass decides.
	c.Calls = nil
	if dest, _ := pe.m.groupAnchor(members, map[actor.Ref]Action{}); dest != 1 {
		t.Fatalf("dest = %d, want the mass anchor server 1 without traffic", dest)
	}
}

// A mover that fits nowhere on every axis is unresolved overload: the round
// reports scale-out pressure.
func TestBatchWantOutWhenNothingFits(t *testing.T) {
	pe := newPlanEnv(t, 2)
	w := mkActor(pe, "W", 0, 40)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {70, 0, 0}}, []*epl.ActorInfo{w})
	acts, _, _, outNeed, _ := pe.m.planResource(nil, within(snap, scope(2)), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 0, 0)
	if len(acts) != 0 {
		t.Fatalf("actions = %+v, want none (70+40 crosses the bound)", acts)
	}
	if outNeed == 0 {
		t.Fatal("unplaceable overload reported no scale-out need")
	}
}

// The low-water side works through the shared projection: a tight band
// redistributes via planDeficitFill and its moves are visible to later
// intents.
func TestBatchLowWaterRedistributes(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{mkActor(pe, "W", 0, 6), mkActor(pe, "W", 0, 3)}
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 70, Lower: 60}
	snap := buildSnapVec(pe, [][3]float64{{66, 0, 0}, {54, 0, 0}}, actors)
	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(2)), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 0, 0)
	if len(acts) == 0 {
		t.Fatal("tight-band low-water redistribution never fired")
	}
	for _, a := range acts {
		if a.Src != 0 || a.Trg != 1 {
			t.Fatalf("action %+v, want a move from 0 to the starved server 1", a)
		}
	}
}

// Affinity is trusted only toward servers with a current report: it is what
// makes the round prefer a loaded server to a quieter one, and a reading
// that may be periods old is no ground for that. The mover's peer sits on
// server 1; with server 1 known only from the cache the load order decides.
func TestBatchAffinityOnlyTowardFreshlyReportedServers(t *testing.T) {
	pe := newPlanEnv(t, 3)
	peer := mkActor(pe, "P", 1, 5)
	mover := mkActor(pe, "W", 0, 20)
	mover.Calls = []epl.CallStat{{CallerType: "P", Caller: peer.Ref, Method: "m", Count: 50}}
	in := &epl.Intents{Balance: []epl.BalanceIntent{{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}}}
	snap := buildSnapVec(pe, [][3]float64{{95, 0, 0}, {50, 0, 0}, {40, 0, 0}}, []*epl.ActorInfo{peer, mover})

	acts, _, _, _, _ := pe.m.planResource(nil, within(snap, scope(3)), in, 0, 0)
	if len(acts) != 1 || acts[0].Trg != 1 {
		t.Fatalf("actions = %+v, want the mover beside its peer on server 1", acts)
	}
	stale1 := []lastReport{{heard: 5}, {heard: 4}, {heard: 5}}
	acts, _, _, _, _ = pe.m.planResource(stale1, within(snap, scope(3)), in, 0, 5)
	if len(acts) != 1 || acts[0].Trg != 2 {
		t.Fatalf("actions = %+v, want the quieter server 2 when server 1's reading is stale", acts)
	}
}
