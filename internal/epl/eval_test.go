package epl

import (
	"math"
	"reflect"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
)

// snapBuilder assembles test snapshots tersely.
type snapBuilder struct {
	snap   *Snapshot
	nextID actor.ID
}

func newSnap() *snapBuilder {
	return &snapBuilder{snap: &Snapshot{}}
}

func (b *snapBuilder) server(id cluster.MachineID, cpu, mem, net float64) *snapBuilder {
	b.snap.Servers = append(b.snap.Servers, &ServerInfo{ID: id, CPUPerc: cpu, MemPerc: mem, NetPerc: net})
	return b
}

func (b *snapBuilder) actor(typ string, srv cluster.MachineID, cpu float64) *ActorInfo {
	b.nextID++
	ai := &ActorInfo{
		Ref: actor.Ref{ID: b.nextID}, Type: typ, Server: srv, CPUPerc: cpu,
		Props: map[string][]actor.Ref{},
	}
	b.snap.Actors = append(b.snap.Actors, ai)
	return ai
}

func (b *snapBuilder) build() *Snapshot { return b.snap.Index() }

func TestEvalBalanceTriggersOnViolation(t *testing.T) {
	pol := MustParse(pagerankPolicy) // >80 or <60 => balance({Partition}, cpu)
	b := newSnap().server(0, 90, 0, 0).server(1, 70, 0, 0).server(2, 40, 0, 0)
	var rec recorder
	in := EvaluateObserved(pol, b.build(), true, true, &rec)
	if len(in.Balance) != 1 {
		t.Fatalf("balance intents = %d, want 1", len(in.Balance))
	}
	bi := in.Balance[0]
	if bi.Upper != 80 || bi.Lower != 60 {
		t.Fatalf("bounds = %v/%v", bi.Upper, bi.Lower)
	}
	// Servers 0 (>80) and 2 (<60) violate; server 1 does not.
	if want := []ruleEval{{rule: 0, examined: 3, fired: 2}}; !reflect.DeepEqual(rec.evals, want) {
		t.Fatalf("RuleEvaluated = %+v, want %+v", rec.evals, want)
	}
}

func TestEvalBalanceQuietWhenInBounds(t *testing.T) {
	pol := MustParse(pagerankPolicy)
	b := newSnap().server(0, 70, 0, 0).server(1, 65, 0, 0)
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Balance) != 0 {
		t.Fatalf("balance should not trigger: %+v", in.Balance)
	}
}

func TestEvalBalanceSkippedWithoutResourceFlag(t *testing.T) {
	pol := MustParse(pagerankPolicy)
	b := newSnap().server(0, 90, 0, 0)
	in := Evaluate(pol, b.build(), false, true) // LEM view
	if len(in.Balance) != 0 {
		t.Fatal("LEM evaluation must not emit resource intents")
	}
}

func TestEvalMetadataRule(t *testing.T) {
	pol := MustParse(metadataPolicy)
	b := newSnap().server(0, 90, 0, 0).server(1, 10, 0, 0)
	hot := b.actor("Folder", 0, 40)
	cold := b.actor("Folder", 0, 5)
	f1 := b.actor("File", 0, 1)
	f2 := b.actor("File", 0, 1)
	f3 := b.actor("File", 1, 1)
	hot.Props["files"] = []actor.Ref{f1.Ref, f2.Ref}
	cold.Props["files"] = []actor.Ref{f3.Ref}
	// hot receives 60% of opens on server 0, cold 40%.
	hot.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 60}}
	cold.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 40}}

	in := Evaluate(pol, b.build(), true, true)
	if len(in.Reserve) != 1 || in.Reserve[0].Actor != hot.Ref {
		t.Fatalf("reserve = %+v", in.Reserve)
	}
	if len(in.Colocate) != 2 {
		t.Fatalf("colocate = %+v (want hot with f1 and f2)", in.Colocate)
	}
	for _, pi := range in.Colocate {
		if pi.A != hot.Ref {
			t.Fatalf("colocate pair %v not anchored at hot folder", pi)
		}
		if pi.B != f1.Ref && pi.B != f2.Ref {
			t.Fatalf("colocated wrong file: %v", pi)
		}
	}
}

func TestEvalMetadataRuleColdServer(t *testing.T) {
	// Same workload but the folder's server is not overloaded: no intents.
	pol := MustParse(metadataPolicy)
	b := newSnap().server(0, 50, 0, 0)
	hot := b.actor("Folder", 0, 40)
	f1 := b.actor("File", 0, 1)
	hot.Props["files"] = []actor.Ref{f1.Ref}
	hot.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 100}}
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Reserve) != 0 || len(in.Colocate) != 0 {
		t.Fatalf("intents on cold server: %+v", in)
	}
}

func TestEvalPercDenominatorPerServer(t *testing.T) {
	// Folder on server 0 gets 45 of 100 opens cluster-wide but 45/50 on its
	// own server: perc must use the per-server denominator (90%).
	pol := MustParse(`client.call(Folder(fo).open).perc > 80 => pin(fo);`)
	b := newSnap().server(0, 0, 0, 0).server(1, 0, 0, 0)
	a := b.actor("Folder", 0, 0)
	peer := b.actor("Folder", 0, 0)
	far := b.actor("Folder", 1, 0)
	far2 := b.actor("Folder", 1, 0)
	a.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 45}}
	peer.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 5}}
	far.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 25}}
	far2.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 25}}
	in := Evaluate(pol, b.build(), true, true)
	// a: 45/50 = 90% on server 0 -> pinned. peer: 10%. far/far2: 50% each.
	if len(in.Pin) != 1 || in.Pin[0].Actor != a.Ref {
		t.Fatalf("pin = %+v, want only the 90%% folder", in.Pin)
	}
}

// TestEvalPercDenominatorSharedPerServer: two contexts on one server share
// its denominator, summed once per evaluation, and a server's denominator
// never leaks into another's. Per-caller filters keep their own: u gets 30
// of w1's 40 runs on server 0 (75%) but 10 of w2's 10 (100%).
func TestEvalPercDenominatorSharedPerServer(t *testing.T) {
	pol := MustParse(`client.call(Folder(fo).open).perc >= 10 => pin(fo);
Worker(w).call(Worker(u).run).perc > 0 => colocate(u, w);`)
	b := newSnap().server(0, 0, 0, 0).server(1, 0, 0, 0)
	a := b.actor("Folder", 0, 0)
	peer := b.actor("Folder", 0, 0)
	far := b.actor("Folder", 1, 0)
	a.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 45}}
	peer.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 5}}
	far.Calls = []CallStat{{CallerType: actor.ClientCaller, Method: "open", Count: 25}}
	w1 := b.actor("Worker", 1, 0)
	w2 := b.actor("Worker", 1, 0)
	u := b.actor("Worker", 0, 0)
	v := b.actor("Worker", 0, 0)
	u.Calls = []CallStat{{CallerType: "Worker", Caller: w1.Ref, Method: "run", Count: 30}, {CallerType: "Worker", Caller: w2.Ref, Method: "run", Count: 10}}
	v.Calls = []CallStat{{CallerType: "Worker", Caller: w1.Ref, Method: "run", Count: 10}}
	var rec recorder
	in := EvaluateObserved(pol, b.build(), true, true, &rec)
	want := map[actor.Ref]float64{a.Ref: 90, peer.Ref: 10, far.Ref: 100}
	pairs := map[[2]actor.Ref]float64{{u.Ref, w1.Ref}: 75, {u.Ref, w2.Ref}: 100, {v.Ref, w1.Ref}: 25}
	if len(rec.fires) != len(want)+len(pairs) || len(in.Pin) != len(want) || len(in.Colocate) != len(pairs) {
		t.Fatalf("fires = %+v, intents = %+v", rec.fires, in)
	}
	for i, f := range rec.fires {
		if i < len(want) {
			if f.values[0].Value != want[f.anchor] {
				t.Errorf("folder %v: perc %v, want %v", f.anchor, f.values[0].Value, want[f.anchor])
			}
			continue
		}
		c := in.Colocate[i-len(want)]
		if got := f.values[0].Value; got != pairs[[2]actor.Ref{c.A, c.B}] {
			t.Errorf("pair %v: perc %v, want %v", c, got, pairs[[2]actor.Ref{c.A, c.B}])
		}
	}
}

func TestEvalHaloRule(t *testing.T) {
	pol := MustParse(haloPolicy)
	b := newSnap().server(0, 0, 0, 0).server(1, 0, 0, 0)
	s1 := b.actor("Session", 0, 0)
	s2 := b.actor("Session", 1, 0)
	p1 := b.actor("Player", 1, 0)
	p2 := b.actor("Player", 0, 0)
	p3 := b.actor("Player", 0, 0)
	s1.Props["players"] = []actor.Ref{p1.Ref, p2.Ref}
	s2.Props["players"] = []actor.Ref{p3.Ref}

	in := Evaluate(pol, b.build(), true, true)
	if len(in.Pin) != 2 {
		t.Fatalf("pins = %+v, want both sessions pinned", in.Pin)
	}
	if len(in.Colocate) != 3 {
		t.Fatalf("colocate = %+v, want 3 player-session pairs", in.Colocate)
	}
	// Pairs are (player, session) in declaration order p then s.
	want := map[actor.Ref]actor.Ref{p1.Ref: s1.Ref, p2.Ref: s1.Ref, p3.Ref: s2.Ref}
	for _, pi := range in.Colocate {
		if want[pi.A] != pi.B {
			t.Fatalf("bad pair %v", pi)
		}
	}
}

func TestEvalCallCountActorCaller(t *testing.T) {
	pol := MustParse(`VideoStream(v).call(UserInfo(u).track).count > 0 => pin(v); colocate(v, u);`)
	b := newSnap().server(0, 0, 0, 0)
	v := b.actor("VideoStream", 0, 0)
	u1 := b.actor("UserInfo", 0, 0)
	u2 := b.actor("UserInfo", 0, 0)
	u1.Calls = []CallStat{{CallerType: "VideoStream", Caller: v.Ref, Method: "track", Count: 7}}
	_ = u2 // receives no track calls

	in := Evaluate(pol, b.build(), true, true)
	if len(in.Pin) != 1 || in.Pin[0].Actor != v.Ref {
		t.Fatalf("pin = %+v", in.Pin)
	}
	if len(in.Colocate) != 1 || in.Colocate[0].A != v.Ref || in.Colocate[0].B != u1.Ref {
		t.Fatalf("colocate = %+v, want (v,u1) only", in.Colocate)
	}
}

func TestEvalTruePinAllOfType(t *testing.T) {
	pol := MustParse(`true => pin(MovieReview(m));`)
	b := newSnap().server(0, 0, 0, 0)
	m1 := b.actor("MovieReview", 0, 0)
	m2 := b.actor("MovieReview", 0, 0)
	b.actor("Other", 0, 0)
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Pin) != 2 {
		t.Fatalf("pins = %+v", in.Pin)
	}
	if in.Pin[0].Actor != m1.Ref || in.Pin[1].Actor != m2.Ref {
		t.Fatalf("pins = %+v", in.Pin)
	}
}

func TestEvalReserveUsesActorServerContext(t *testing.T) {
	// server.cpu refers to the server hosting the bound actor.
	pol := MustParse(`server.cpu.perc > 50 => reserve(VideoStream(v), cpu);`)
	b := newSnap().server(0, 90, 0, 0).server(1, 10, 0, 0)
	hot := b.actor("VideoStream", 0, 0)
	cold := b.actor("VideoStream", 1, 0)
	_ = cold
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Reserve) != 1 || in.Reserve[0].Actor != hot.Ref {
		t.Fatalf("reserve = %+v, want only actor on hot server", in.Reserve)
	}
}

func TestEvalActorResourceFeature(t *testing.T) {
	pol := MustParse(`Worker(w).cpu.perc > 30 => reserve(w, cpu);`)
	b := newSnap().server(0, 0, 0, 0)
	big := b.actor("Worker", 0, 45)
	small := b.actor("Worker", 0, 10)
	_ = small
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Reserve) != 1 || in.Reserve[0].Actor != big.Ref {
		t.Fatalf("reserve = %+v", in.Reserve)
	}
}

func TestEvalSeparate(t *testing.T) {
	pol := MustParse(`Leaf(a).cpu.perc > 10 and Leaf(b).cpu.perc > 10 => separate(a, b);`)
	b := newSnap().server(0, 0, 0, 0)
	x := b.actor("Leaf", 0, 20)
	y := b.actor("Leaf", 0, 20)
	in := Evaluate(pol, b.build(), true, true)
	// Bindings (x,y) and (y,x) dedupe by ordered pair; self pairs excluded.
	if len(in.Separate) != 2 {
		t.Fatalf("separate = %+v", in.Separate)
	}
	for _, pi := range in.Separate {
		if pi.A == pi.B {
			t.Fatal("self pair emitted")
		}
	}
	_ = x
	_ = y
}

func TestEvalAnyTypeMatchesAll(t *testing.T) {
	pol := MustParse(`any(a).cpu.perc > 50 => reserve(a, cpu);`)
	b := newSnap().server(0, 0, 0, 0)
	w := b.actor("Worker", 0, 60)
	f := b.actor("Folder", 0, 70)
	b.actor("Idle", 0, 10)
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Reserve) != 2 {
		t.Fatalf("reserve = %+v", in.Reserve)
	}
	got := map[actor.Ref]bool{in.Reserve[0].Actor: true, in.Reserve[1].Actor: true}
	if !got[w.Ref] || !got[f.Ref] {
		t.Fatalf("reserve = %+v", in.Reserve)
	}
}

func TestEvalOrCondition(t *testing.T) {
	pol := MustParse(`server.net.perc > 80 or server.net.perc < 60 => balance({FrontEnd}, net);`)
	b := newSnap().server(0, 0, 0, 70) // in band: no trigger
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Balance) != 0 {
		t.Fatal("should not trigger inside band")
	}
	b2 := newSnap().server(0, 0, 0, 85)
	in2 := Evaluate(pol, b2.build(), true, true)
	if len(in2.Balance) != 1 {
		t.Fatal("should trigger above band")
	}
}

func TestEvalInRefPruningMatchesCrossProduct(t *testing.T) {
	// The container-first pruning must agree with brute-force semantics.
	pol := MustParse(haloPolicy)
	b := newSnap().server(0, 0, 0, 0)
	var sessions []*ActorInfo
	var players []*ActorInfo
	for i := 0; i < 5; i++ {
		sessions = append(sessions, b.actor("Session", 0, 0))
	}
	for i := 0; i < 20; i++ {
		players = append(players, b.actor("Player", 0, 0))
	}
	for i, p := range players {
		s := sessions[i%len(sessions)]
		s.Props["players"] = append(s.Props["players"], p.Ref)
	}
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Colocate) != 20 {
		t.Fatalf("colocate = %d, want 20 (one per player)", len(in.Colocate))
	}
}

// Two-behavior rules: every behavior of a firing rule applies, so each
// balance and each provclass behavior gives its own intent.
const (
	twoBalanceRule   = `server.cpu.perc > 50 => balance({A}, cpu); balance({B}, mem);`
	twoProvClassRule = `server.cpu.perc > 50 => provclass({warm}); provclass({container});`
)

// TestEvalOneIntentPerBehavior evaluates the two-behavior rules on two
// servers, one above 50% CPU. The balance rule gives two intents: {A} on
// cpu, its upper bound the condition's 50 and no lower bound, and {B} on
// mem with neither bound, since the condition states none on mem. The
// provclass rule gives [warm] then [container], its ProvClassChain.
func TestEvalOneIntentPerBehavior(t *testing.T) {
	pol := MustParse(twoBalanceRule + "\n" + twoProvClassRule)
	in := canonical(Evaluate(pol, newSnap().server(0, 90, 0, 0).server(1, 20, 0, 0).build(), true, false))
	inf := math.Inf(1) // canonical's stand-in for a bound the rule does not state
	wantBal := []BalanceIntent{
		{Rule: pol.Rules[0], Types: []string{"A"}, Res: CPU, Upper: 50, Lower: inf},
		{Rule: pol.Rules[0], Types: []string{"B"}, Res: Mem, Upper: inf, Lower: inf},
	}
	if !reflect.DeepEqual(in.Balance, wantBal) {
		t.Errorf("balance intents = %+v, want %+v", in.Balance, wantBal)
	}
	wantProv := []ProvClassIntent{
		{Rule: pol.Rules[1], Classes: []string{"warm"}},
		{Rule: pol.Rules[1], Classes: []string{"container"}},
	}
	if !reflect.DeepEqual(in.ProvClass, wantProv) {
		t.Errorf("provclass intents = %+v, want %+v", in.ProvClass, wantProv)
	}
}

// refUnderOrRule puts a ref(...) under an `or`: on a server above 50% the
// condition holds for every player, listed in the session or not.
const refUnderOrRule = `Session(s).cpu.perc >= 0 and (Player(p) in ref(s.players) or server.cpu.perc > 50) => colocate(p, s);`

func TestEvalInRefUnderOrNarrowsNothing(t *testing.T) {
	pol := MustParse(refUnderOrRule)
	b := newSnap().server(0, 90, 0, 0)
	s := b.actor("Session", 0, 0)
	listed := b.actor("Player", 0, 0)
	b.actor("Player", 0, 0)
	b.actor("Player", 0, 0)
	s.Props["players"] = []actor.Ref{listed.Ref}
	// The session's server is at 90%, so the `or` holds for each of the
	// three players: one colocate intent per player.
	if in := Evaluate(pol, b.build(), true, true); len(in.Colocate) != 3 {
		t.Fatalf("colocate = %+v, want one per player (3)", in.Colocate)
	}
}

// TestEvalInRefListedTwiceFiresOnce: a session whose players property lists
// its one player twice still has one (session, player) binding, so the rule
// fires once and gives one colocate intent.
func TestEvalInRefListedTwiceFiresOnce(t *testing.T) {
	pol := MustParse(`Player(p) in ref(Session(s).players) => colocate(p, s);`)
	b := newSnap().server(0, 0, 0, 0)
	s := b.actor("Session", 0, 0)
	p := b.actor("Player", 0, 0)
	s.Props["players"] = []actor.Ref{p.Ref, p.Ref}
	var rec recorder
	in := EvaluateObserved(pol, b.build(), true, true, &rec)
	if want := []ruleEval{{rule: 0, examined: 1, fired: 1}}; !reflect.DeepEqual(rec.evals, want) {
		t.Fatalf("RuleEvaluated = %+v, want %+v", rec.evals, want)
	}
	if len(rec.fires) != 1 {
		t.Fatalf("RuleFired %d times, want once: %+v", len(rec.fires), rec.fires)
	}
	if want := []PairIntent{{Rule: pol.Rules[0], A: p.Ref, B: s.Ref}}; !reflect.DeepEqual(in.Colocate, want) {
		t.Fatalf("colocate = %+v, want %+v", in.Colocate, want)
	}
}

// TestEvalInRefReachesActorsSharingAnID: two players share the id the
// session's property names, so the condition holds for both, and the rule
// fires on both bindings as the cross product does.
func TestEvalInRefReachesActorsSharingAnID(t *testing.T) {
	pol := MustParse(`Player(p) in ref(Session(s).players) => colocate(p, s);`)
	b := newSnap().server(0, 0, 0, 0)
	s := b.actor("Session", 0, 0)
	p1 := b.actor("Player", 0, 0)
	p2 := b.actor("Player", 0, 0)
	p2.Ref = p1.Ref
	s.Props["players"] = []actor.Ref{p1.Ref}
	snap := b.build()
	var rec recorder
	EvaluateObserved(pol, snap, true, true, &rec)
	if want := []ruleEval{{rule: 0, examined: 2, fired: 2}}; !reflect.DeepEqual(rec.evals, want) {
		t.Fatalf("RuleEvaluated = %+v, want %+v", rec.evals, want)
	}
	if d, _ := diffEvaluate(pol, snap, true, true); d != "" {
		t.Fatal(d)
	}
}

func TestEvalEmptySnapshot(t *testing.T) {
	pol := MustParse(mediaPolicy)
	in := Evaluate(pol, (&Snapshot{}).Index(), true, true)
	if len(in.Balance)+len(in.Reserve)+len(in.Colocate)+len(in.Separate)+len(in.Pin) != 0 {
		t.Fatalf("intents from empty snapshot: %+v", in)
	}
}

// Index sizes each type's list to its count instead of growing it one
// append at a time, and a re-index that fits keeps the lists: 3,000 actors of
// two types, indexed, then re-indexed with a third of them gone.
func TestIndexSizesTypeListsOnce(t *testing.T) {
	s := &Snapshot{}
	for i := 1; i <= 3000; i++ {
		typ := "A"
		if i%3 == 0 {
			typ = "B"
		}
		s.Actors = append(s.Actors, &ActorInfo{Ref: actor.Ref{ID: actor.ID(i)}, Type: typ})
	}
	s.Index()
	if a, b := s.OfType("A"), s.OfType("B"); len(a) != 2000 || cap(a) != 2000 || len(b) != 1000 || cap(b) != 1000 {
		t.Fatalf("A: %d of capacity %d, B: %d of capacity %d; want 2000 and 1000, exactly", len(a), cap(a), len(b), cap(b))
	}
	s.Actors = s.Actors[:2000]
	if allocs := testing.AllocsPerRun(3, func() { s.Index() }); allocs != 0 {
		t.Fatalf("a re-index that fits allocates %.0f objects", allocs)
	}
	if a, b := s.OfType("A"), s.OfType("B"); len(a) != 1334 || len(b) != 666 || s.Actor(actor.Ref{ID: 2500}) != nil {
		t.Fatalf("after the re-index A holds %d, B %d, actor 2500 %v", len(a), len(b), s.Actor(actor.Ref{ID: 2500}))
	}
}

func TestBalanceIntentCovers(t *testing.T) {
	bi := BalanceIntent{Types: []string{"A", "B"}}
	if !bi.Covers("A") || !bi.Covers("B") || bi.Covers("C") {
		t.Fatal("Covers broken")
	}
	any := BalanceIntent{Types: []string{AnyType}}
	if !any.Covers("Whatever") {
		t.Fatal("any should cover all")
	}
}

// TestTypeMatchesOnlyItself: actor types match only themselves (§3.2), so
// a rule naming Partition passes over a HotPartition actor, whether it is
// enumerated by type or reached through a property ref, and a balance on
// Partition does not cover it. Checking against a schema that declares
// both changes none of this, and leaves the policy as parsed.
func TestTypeMatchesOnlyItself(t *testing.T) {
	src := `Partition(p).cpu.perc > 30 => reserve(p, cpu);
Partition(q).cpu.perc >= 0 and Partition(c) in ref(q.children) => colocate(q, c);
server.cpu.perc > 80 => balance({Partition}, cpu);`
	pol := MustParse(src)
	schema := NewSchema(Class("Partition", nil, []string{"children"}), Class("HotPartition", nil, nil))
	if _, err := Check(pol, schema); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pol, MustParse(src)) {
		t.Fatal("Check modified the policy")
	}
	b := newSnap().server(0, 90, 0, 0).server(1, 10, 0, 0)
	plain := b.actor("Partition", 0, 55)
	hot := b.actor("HotPartition", 1, 60)
	child := b.actor("Partition", 1, 0)
	plain.Props["children"] = []actor.Ref{hot.Ref, child.Ref}
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Reserve) != 1 || in.Reserve[0].Actor != plain.Ref {
		t.Fatalf("reserve = %+v, want the Partition actor alone", in.Reserve)
	}
	if len(in.Colocate) != 1 || in.Colocate[0].B != child.Ref {
		t.Fatalf("colocate = %+v, want the Partition child alone", in.Colocate)
	}
	if len(in.Balance) != 1 || !in.Balance[0].Covers("Partition") || in.Balance[0].Covers("HotPartition") {
		t.Fatalf("balance = %+v, want one intent covering Partition alone", in.Balance)
	}
}
