package epl

import (
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
	b.snap.Servers = append(b.snap.Servers, &ServerInfo{ID: id, CPUPerc: cpu, MemPerc: mem, NetPerc: net, VCPUs: 1, Up: true})
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
	in := Evaluate(pol, b.build(), true, true)
	if len(in.Balance) != 1 {
		t.Fatalf("balance intents = %d, want 1", len(in.Balance))
	}
	bi := in.Balance[0]
	if bi.Upper != 80 || bi.Lower != 60 {
		t.Fatalf("bounds = %v/%v", bi.Upper, bi.Lower)
	}
	// Servers 0 (>80) and 2 (<60) violate; server 1 does not.
	if len(bi.Violating) != 2 {
		t.Fatalf("violating = %v", bi.Violating)
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

func TestEvalEmptySnapshot(t *testing.T) {
	pol := MustParse(mediaPolicy)
	in := Evaluate(pol, (&Snapshot{}).Index(), true, true)
	if len(in.Balance)+len(in.Reserve)+len(in.Colocate)+len(in.Separate)+len(in.Pin) != 0 {
		t.Fatalf("intents from empty snapshot: %+v", in)
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
