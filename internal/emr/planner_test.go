package emr

import (
	"slices"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// Direct unit tests for the planner over synthetic snapshots.

type planEnv struct {
	e *env
	m *Manager
}

func newPlanEnv(t *testing.T, machines int) *planEnv {
	t.Helper()
	e := newEnv(1, machines, 2)
	m := New(e.k, e.c, e.rt, e.prof, epl.MustParse(`true => pin(Nothing(n));`),
		Config{Period: sim.Second, MinResidence: sim.Millisecond})
	// Advance past the residence window so fabricated actors (LastMoved=0)
	// are movable.
	e.k.Run(sim.Time(sim.Second))
	return &planEnv{e: e, m: m}
}

// buildSnap makes a snapshot with explicit server loads and actors.
func buildSnap(pe *planEnv, serverCPU []float64, actors []*epl.ActorInfo) *epl.Snapshot {
	snap := &epl.Snapshot{At: pe.e.k.Now(), Window: sim.Second}
	for i, cpu := range serverCPU {
		snap.Servers = append(snap.Servers, &epl.ServerInfo{ID: cluster.MachineID(i), CPUPerc: cpu})
	}
	snap.Actors = actors
	return snap.Index()
}

// mkActor fabricates actor info; the actor is also spawned in the runtime
// so ActorsOn and admission lookups resolve.
func mkActor(pe *planEnv, typ string, srv cluster.MachineID, cpu float64) *epl.ActorInfo {
	ref := pe.e.rt.SpawnOn(typ, actor.BehaviorFunc(func(*actor.Context, actor.Message) {}), srv)
	return &epl.ActorInfo{
		Ref: ref, Type: typ, Server: srv, CPUPerc: cpu,
		Props: map[string][]actor.Ref{},
	}
}

// planBalance runs the planning round with one balance intent; wantOut is
// the round's scale-out need as a flag.
func (pe *planEnv) planBalance(bi epl.BalanceIntent, snap *epl.Snapshot, scope []cluster.MachineID) (acts []Action, allOver, allUnder, wantOut, wantIn bool) {
	acts, allOver, allUnder, outNeed, wantIn := pe.m.planResource(nil, within(snap, scope), &epl.Intents{Balance: []epl.BalanceIntent{bi}}, 0, 0)
	return acts, allOver, allUnder, outNeed > 0, wantIn
}

// planReserve runs the planning round with one reserve intent.
func (pe *planEnv) planReserve(ri epl.ReserveIntent, snap *epl.Snapshot, scope []cluster.MachineID) (act *Action, starved bool) {
	acts, _, _, outNeed, _ := pe.m.planResource(nil, within(snap, scope), &epl.Intents{Reserve: []epl.ReserveIntent{ri}}, 0, 0)
	if len(acts) > 0 {
		act = &acts[0]
	}
	return act, outNeed > 0
}

// within is the view a GEM whose scope is the given servers plans on: the
// same actors, only those servers.
func within(snap *epl.Snapshot, scope []cluster.MachineID) *epl.Snapshot {
	var servers []*epl.ServerInfo
	for _, srv := range snap.Servers {
		if slices.Contains(scope, srv.ID) {
			servers = append(servers, srv)
		}
	}
	return snap.WithServers(servers)
}

func scope(n int) []cluster.MachineID {
	out := make([]cluster.MachineID, n)
	for i := range out {
		out[i] = cluster.MachineID(i)
	}
	return out
}

func TestPlanBalanceShedsOverloadedServer(t *testing.T) {
	pe := newPlanEnv(t, 3)
	actors := []*epl.ActorInfo{
		mkActor(pe, "W", 0, 40), mkActor(pe, "W", 0, 30), mkActor(pe, "W", 0, 25),
		mkActor(pe, "W", 1, 30),
	}
	snap := buildSnap(pe, []float64{95, 30, 10}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(3))
	if len(acts) == 0 {
		t.Fatal("no actions for a 95% server")
	}
	for _, a := range acts {
		if a.Src != 0 {
			t.Fatalf("action from %d, want hot server 0", a.Src)
		}
		if a.Trg == 0 {
			t.Fatal("action targets the hot server")
		}
	}
}

func TestPlanBalanceRespectsScope(t *testing.T) {
	pe := newPlanEnv(t, 3)
	actors := []*epl.ActorInfo{mkActor(pe, "W", 0, 50)}
	snap := buildSnap(pe, []float64{95, 5, 5}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	// Server 2 is outside the GEM's scope: nothing may target it.
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(2))
	for _, a := range acts {
		if a.Trg == 2 {
			t.Fatal("action targets an out-of-scope server")
		}
	}
}

func TestPlanBalanceSkipsWrongTypes(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{mkActor(pe, "Other", 0, 90)}
	snap := buildSnap(pe, []float64{95, 5}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, outNeedIgnored, _ := pe.planBalance(bi, snap, scope(2))
	_ = outNeedIgnored
	if len(acts) != 0 {
		t.Fatalf("balanced an uncovered type: %+v", acts)
	}
}

func TestPlanBalanceAllOverSignalsScaleOut(t *testing.T) {
	pe := newPlanEnv(t, 2)
	actors := []*epl.ActorInfo{mkActor(pe, "W", 0, 50), mkActor(pe, "W", 1, 50)}
	snap := buildSnap(pe, []float64{95, 92}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	_, allOver, _, wantOut, _ := pe.planBalance(bi, snap, scope(2))
	if !allOver || !wantOut {
		t.Fatalf("allOver=%v wantOut=%v, want both true", allOver, wantOut)
	}
}

func TestPlanBalanceAllUnderSignalsScaleIn(t *testing.T) {
	pe := newPlanEnv(t, 3)
	snap := buildSnap(pe, []float64{10, 12, 8}, nil)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	_, _, allUnder, _, wantIn := pe.planBalance(bi, snap, scope(3))
	if !allUnder || !wantIn {
		t.Fatalf("allUnder=%v wantIn=%v, want both true", allUnder, wantIn)
	}
}

// TestPlannerBandIsEplBand holds the planner to epl.Band: on a uniformly
// loaded fleet, for each shape of balance band (the same four policies as
// the model's TestModelBandIsEMRBand), every server is over exactly when the
// load is above the band's upper bound and under exactly when it is below
// its lower. Together the two tests fail when the EMR and the offline model
// disagree on a policy's band.
func TestPlannerBandIsEplBand(t *testing.T) {
	for _, src := range []string{
		`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({W}, cpu);`,
		`server.cpu.perc > 70 => balance({W}, cpu);`,
		`server.cpu.perc < 50 => balance({W}, cpu);`,
		`true => balance({W}, cpu);`,
	} {
		pol := epl.MustParse(src)
		for load := 5.0; load <= 100; load += 5 {
			pe := newPlanEnv(t, 3)
			snap := buildSnap(pe, []float64{load, load, load}, nil)
			in := epl.Evaluate(pol, snap, true, false)
			var wantOver, wantUnder bool
			for _, bi := range in.Balance {
				upper, lower := epl.Band(bi.Upper, bi.Lower)
				wantOver = wantOver || load > upper
				wantUnder = wantUnder || load < lower
			}
			_, allOver, allUnder, _, _ := pe.m.planResource(nil, snap, in, 0, 0)
			if allOver != wantOver || allUnder != wantUnder {
				t.Errorf("%s at %.0f%%: planner over=%v under=%v, epl.Band says over=%v under=%v",
					src, load, allOver, allUnder, wantOver, wantUnder)
			}
		}
	}
}

func TestDeficitFillPullsOntoEmptyServer(t *testing.T) {
	pe := newPlanEnv(t, 3)
	actors := []*epl.ActorInfo{
		mkActor(pe, "W", 0, 20), mkActor(pe, "W", 0, 18), mkActor(pe, "W", 0, 16),
		mkActor(pe, "W", 1, 30),
	}
	snap := buildSnap(pe, []float64{74, 50, 0}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(3))
	filled := false
	for _, a := range acts {
		if a.Trg == 2 {
			filled = true
		}
	}
	if !filled {
		t.Fatalf("empty server never filled: %+v", acts)
	}
}

func TestDeficitFillQuietWhenFleetUniformlyLight(t *testing.T) {
	pe := newPlanEnv(t, 3)
	actors := []*epl.ActorInfo{mkActor(pe, "W", 0, 10), mkActor(pe, "W", 1, 10), mkActor(pe, "W", 2, 10)}
	snap := buildSnap(pe, []float64{20, 22, 18}, actors)
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: 80, Lower: 60}
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(3))
	if len(acts) != 0 {
		t.Fatalf("dual-bound rule rebalanced a uniformly light fleet: %+v", acts)
	}
}

func TestDeficitFillLowerOnlyRuleActsOnLightFleet(t *testing.T) {
	pe := newPlanEnv(t, 3)
	actors := []*epl.ActorInfo{
		mkActor(pe, "W", 0, 15), mkActor(pe, "W", 0, 14), mkActor(pe, "W", 0, 9),
	}
	snap := buildSnap(pe, []float64{40, 2, 1}, actors)
	// Lower-only (E-Store style): redistribute despite all servers < upper.
	bi := epl.BalanceIntent{Types: []string{"W"}, Res: epl.CPU, Upper: nan(), Lower: 50}
	acts, _, _, _, _ := pe.planBalance(bi, snap, scope(3))
	if len(acts) == 0 {
		t.Fatal("lower-only rule did not redistribute")
	}
}

func nan() float64 {
	var z float64
	return 0 / z // NaN: "no upper bound stated"
}

func TestPlanReserveStarvedWhenNoTarget(t *testing.T) {
	pe := newPlanEnv(t, 2)
	vip := mkActor(pe, "V", 0, 30)
	snap := buildSnap(pe, []float64{90, 50}, []*epl.ActorInfo{vip})
	// Reserve the only other server for someone else.
	pe.m.srv(1).owner = actor.Ref{ID: 9999}
	ri := epl.ReserveIntent{Actor: vip.Ref, Res: epl.CPU}
	act, starved := pe.planReserve(ri, snap, scope(2))
	if act != nil || !starved {
		t.Fatalf("act=%v starved=%v, want nil/true", act, starved)
	}
}

func TestPlanReserveSatisfiedNotStarved(t *testing.T) {
	pe := newPlanEnv(t, 2)
	vip := mkActor(pe, "V", 0, 30)
	snap := buildSnap(pe, []float64{90, 5}, []*epl.ActorInfo{vip})
	ri := epl.ReserveIntent{Actor: vip.Ref, Res: epl.CPU}
	act, starved := pe.planReserve(ri, snap, scope(2))
	if act == nil || starved {
		t.Fatalf("act=%v starved=%v, want action/false", act, starved)
	}
	if act.Trg != 1 || act.Kind != epl.KindReserve {
		t.Fatalf("action %+v", act)
	}
}

func TestGroupAnchorPrefersPlannedAction(t *testing.T) {
	pe := newPlanEnv(t, 3)
	a := mkActor(pe, "A", 0, 10)
	b := mkActor(pe, "B", 1, 10)
	planned := map[actor.Ref]Action{
		a.Ref: {Actor: a.Ref, Src: 0, Trg: 2, Pri: 45, Kind: epl.KindReserve},
	}
	dest, anchor := pe.m.groupAnchor([]*epl.ActorInfo{a, b}, planned)
	if dest != 2 || anchor != a.Ref {
		t.Fatalf("dest=%d anchor=%v, want planned destination 2 anchored at a", dest, anchor)
	}
}

func TestGroupAnchorPrefersPinnedOverMass(t *testing.T) {
	pe := newPlanEnv(t, 2)
	heavy := mkActor(pe, "A", 0, 10)
	heavy.MemBytes = 1 << 30
	pinned := mkActor(pe, "B", 1, 10)
	pinned.Pinned = true
	dest, anchor := pe.m.groupAnchor([]*epl.ActorInfo{heavy, pinned}, map[actor.Ref]Action{})
	if dest != 1 || anchor != pinned.Ref {
		t.Fatalf("dest=%d anchor=%v, want pinned member's server", dest, anchor)
	}
}

func TestGroupAnchorFallsBackToMass(t *testing.T) {
	pe := newPlanEnv(t, 2)
	big := mkActor(pe, "A", 1, 10)
	big.MemBytes = 1 << 20
	small := mkActor(pe, "B", 0, 10)
	dest, _ := pe.m.groupAnchor([]*epl.ActorInfo{big, small}, map[actor.Ref]Action{})
	if dest != 1 {
		t.Fatalf("dest=%d, want the server holding most state", dest)
	}
}

func TestColocateGroupsMergeTransitively(t *testing.T) {
	pe := newPlanEnv(t, 3)
	a := mkActor(pe, "A", 0, 5)
	b := mkActor(pe, "B", 1, 5)
	c := mkActor(pe, "C", 2, 5)
	snap := buildSnap(pe, []float64{10, 10, 10}, []*epl.ActorInfo{a, b, c})
	pairs := []epl.PairIntent{{A: a.Ref, B: b.Ref}, {A: b.Ref, B: c.Ref}}
	acts := pe.m.planColocateGroups(snap, pairs, map[actor.Ref]Action{})
	// a, b, c form one family: two of them must move to the third's server.
	if len(acts) != 2 {
		t.Fatalf("actions = %+v, want 2 moves into one home", acts)
	}
	if acts[0].Trg != acts[1].Trg {
		t.Fatal("family split across destinations")
	}
}

func TestSeparatesSpreadAcrossTargets(t *testing.T) {
	pe := newPlanEnv(t, 4)
	a := mkActor(pe, "L", 0, 5)
	b := mkActor(pe, "L", 0, 5)
	c := mkActor(pe, "L", 0, 5)
	snap := buildSnap(pe, []float64{50, 5, 6, 7}, []*epl.ActorInfo{a, b, c})
	// Both orders of each pair, as a rule over two same-type variables
	// binds them: once b and c have left a, the pairs naming a are settled.
	pairs := []epl.PairIntent{
		{A: a.Ref, B: b.Ref}, {A: a.Ref, B: c.Ref}, {A: b.Ref, B: c.Ref},
		{A: b.Ref, B: a.Ref}, {A: c.Ref, B: a.Ref}, {A: c.Ref, B: b.Ref},
	}
	acts := pe.m.planSeparates(snap, pairs, map[actor.Ref]Action{})
	if len(acts) != 2 {
		t.Fatalf("actions = %+v, want 2 movers and one actor staying", acts)
	}
	seen := map[cluster.MachineID]bool{}
	for _, act := range acts {
		if seen[act.Trg] {
			t.Fatalf("two separate movers sent to the same server: %+v", acts)
		}
		seen[act.Trg] = true
	}
}
