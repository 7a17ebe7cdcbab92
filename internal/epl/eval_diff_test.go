package epl

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
)

// firing is one RuleFired call, its values copied out of the reused buffer.
type firing struct {
	rule   int
	anchor actor.Ref
	srv    cluster.MachineID
	values []FeatureValue
}

// ruleEval is one RuleEvaluated call.
type ruleEval struct {
	rule, examined, fired int
	truncated             bool
}

// recorder keeps every observation of one evaluation, in order.
type recorder struct {
	fires []firing
	evals []ruleEval
}

func (r *recorder) RuleEvaluated(rule *Rule, examined, fired int, truncated bool) {
	r.evals = append(r.evals, ruleEval{rule.Index, examined, fired, truncated})
}

func (r *recorder) RuleFired(rule *Rule, anchor actor.Ref, srv cluster.MachineID, values []FeatureValue) {
	r.fires = append(r.fires, firing{rule.Index, anchor, srv, append([]FeatureValue(nil), values...)})
}

// evalsOnly keeps the RuleEvaluated calls and drops the firings.
type evalsOnly struct{ recorder }

func (*evalsOnly) RuleFired(*Rule, actor.Ref, cluster.MachineID, []FeatureValue) {}

// diffEvaluate evaluates pol against snap with Evaluate and with the
// literal cross product (spec_test.go) and reports the first difference:
// the intents, element for element; the RuleFired sequence, values
// included; each rule's firing count; and examined, which may only fall (a
// narrowed level skips bindings), never rise. narrowed reports whether some
// rule examined fewer contexts.
func diffEvaluate(pol *Policy, snap *Snapshot, resource, interaction bool) (diff string, narrowed bool) {
	var got recorder
	in := canonical(EvaluateObserved(pol, snap, resource, interaction, &got))
	want := specEvaluate(pol, snap, resource, interaction)
	if ref := canonical(want.in); !reflect.DeepEqual(in, ref) {
		return fmt.Sprintf("intents differ:\n got %+v\nwant %+v", in, ref), false
	}
	if !reflect.DeepEqual(got.fires, want.fires) {
		return fmt.Sprintf("RuleFired sequences differ:\n got %+v\nwant %+v", got.fires, want.fires), false
	}
	if len(got.evals) != len(want.evals) {
		return fmt.Sprintf("%d RuleEvaluated calls, want %d", len(got.evals), len(want.evals)), false
	}
	for i, g := range got.evals {
		w := want.evals[i]
		if g.rule != w.rule || g.fired != w.fired || g.examined > w.examined || g.truncated {
			return fmt.Sprintf("rule evaluation %d: got %+v, cross product %+v", i, g, w), false
		}
		narrowed = narrowed || g.examined < w.examined
	}
	return "", narrowed
}

// diffTypes are the types a generated policy names; a snapshot adds
// "Other", which no rule binds unless it says any.
var diffTypes = []string{"A", "B", "C"}

// genDiffPolicy writes one random rule set over diffTypes with at most
// three binding refs a rule: actor-to-actor call comparisons (each way
// round, against thresholds false and true at 0), client calls, ref(...)
// atoms, resource atoms, `any` types, anonymous patterns, `or` and
// parenthesised groups, and every behavior.
func genDiffPolicy(rng *rand.Rand) string {
	var sb strings.Builder
	stats := []string{"count", "size", "perc"}
	ops := []string{">", ">=", "<", "<="}
	vals := []string{"0", "1", "3", "50"}
	res := []string{"cpu", "mem", "net"}
	for r := rng.Intn(3) + 1; r > 0; r-- {
		var vars []string
		refs := 0
		typ := func() string {
			if rng.Intn(6) == 0 {
				return AnyType
			}
			return diffTypes[rng.Intn(len(diffTypes))]
		}
		// actor names an actor: a declared variable, a new one, or (rarely)
		// an anonymous pattern, which is a binding ref of its own.
		actor := func() string {
			if len(vars) > 0 && (refs >= 3 || rng.Intn(3) == 0) {
				return vars[rng.Intn(len(vars))]
			}
			refs++
			if rng.Intn(8) == 0 {
				return diffTypes[rng.Intn(len(diffTypes))]
			}
			v := fmt.Sprintf("x%d", len(vars))
			vars = append(vars, v)
			return typ() + "(" + v + ")"
		}
		cmp := func() string {
			return fmt.Sprintf(" %s %s", ops[rng.Intn(len(ops))], vals[rng.Intn(len(vals))])
		}
		atom := func() string {
			switch k := rng.Intn(10); {
			case k < 4:
				callee := actor()
				return fmt.Sprintf("%s.call(%s.m).%s%s", actor(), callee, stats[rng.Intn(3)], cmp())
			case k < 5:
				return fmt.Sprintf("client.call(%s.%s).%s%s", actor(), []string{"m", "n"}[rng.Intn(2)], stats[rng.Intn(3)], cmp())
			case k < 6:
				container := actor()
				return fmt.Sprintf("%s in ref(%s.p)", actor(), container)
			case k < 7:
				return fmt.Sprintf("%s.%s.%s%s", actor(), res[rng.Intn(3)], []string{"perc", "size"}[rng.Intn(2)], cmp())
			case k < 9:
				return fmt.Sprintf("server.cpu.perc%s", cmp())
			default:
				return "true"
			}
		}
		cond := atom()
		for c := rng.Intn(3); c > 0; c-- {
			switch rng.Intn(4) {
			case 0:
				cond += " or " + atom()
			case 1:
				cond = "(" + cond + " or " + atom() + ")"
			default:
				cond += " and " + atom()
			}
		}
		var behs []string
		for b := rng.Intn(2) + 1; b > 0; b-- {
			switch rng.Intn(7) {
			case 0:
				behs = append(behs, fmt.Sprintf("balance({%s}, cpu)", diffTypes[rng.Intn(len(diffTypes))]))
			case 1:
				behs = append(behs, fmt.Sprintf("reserve(%s, cpu)", actor()))
			case 2, 3:
				behs = append(behs, fmt.Sprintf("colocate(%s, %s)", actor(), actor()))
			case 4:
				behs = append(behs, fmt.Sprintf("separate(%s, %s)", actor(), actor()))
			case 5:
				behs = append(behs, "provclass({warm})")
			default:
				behs = append(behs, fmt.Sprintf("pin(%s)", actor()))
			}
		}
		fmt.Fprintf(&sb, "%s => %s;\n", cond, strings.Join(behs, "; "))
	}
	return sb.String()
}

// genDiffSnapshot builds a snapshot of up to 24 actors on up to four
// servers, some maybe down (unlisted, as the profiler leaves them) and one
// maybe never listed. Actors appear in
// shuffled id order, and each actor's Calls in shuffled order, so neither
// matches the profiler's sorting. Callers are actors of any type, ids no
// actor has, or zero (per-type records), and one caller may appear in
// several records. One snapshot in eight repeats an id (on two actors of
// one type), and one in eight uses id 0.
func genDiffSnapshot(rng *rand.Rand) *Snapshot {
	snap := &Snapshot{}
	servers := 1 + rng.Intn(4)
	for i := 0; i < servers; i++ {
		if cpu := float64(rng.Intn(100)); rng.Intn(6) != 0 {
			snap.Servers = append(snap.Servers, &ServerInfo{ID: cluster.MachineID(i), CPUPerc: cpu})
		}
	}
	n := rng.Intn(25)
	ids := rng.Perm(40)[:n]
	dup := n > 1 && rng.Intn(8) == 0
	if dup {
		ids[0] = ids[1]
	}
	if n > 0 && rng.Intn(8) == 0 {
		ids[n-1] = -1
	}
	types := append(diffTypes[:len(diffTypes):len(diffTypes)], "Other")
	callerTypes := append(types[:len(types):len(types)], actor.ClientCaller)
	ref := func() actor.Ref {
		switch k := rng.Intn(8); {
		case k == 0:
			return actor.Ref{}
		case k == 1 || n == 0:
			return actor.Ref{ID: actor.ID(41 + rng.Intn(4))}
		default:
			return actor.Ref{ID: actor.ID(ids[rng.Intn(n)] + 1)}
		}
	}
	for _, id := range ids {
		a := &ActorInfo{
			Ref: actor.Ref{ID: actor.ID(id + 1)}, Type: types[rng.Intn(len(types))],
			Server: cluster.MachineID(rng.Intn(servers + 1)), CPUPerc: float64(rng.Intn(60)), MemBytes: int64(rng.Intn(4)),
		}
		if rng.Intn(3) == 0 {
			a.Props = map[string][]actor.Ref{"p": nil}
			for k := rng.Intn(4); k > 0; k-- {
				a.Props["p"] = append(a.Props["p"], ref())
			}
		}
		for k := rng.Intn(5); k > 0; k-- {
			cs := CallStat{
				CallerType: callerTypes[rng.Intn(len(callerTypes))], Caller: ref(),
				Method: []string{"m", "m", "n"}[rng.Intn(3)], Count: int64(rng.Intn(4)), Bytes: int64(rng.Intn(3)) * 64,
			}
			if cs.Caller.Zero() || rng.Intn(4) != 0 || len(a.Calls) == 0 {
				a.Calls = append(a.Calls, cs)
			} else {
				// The same caller again under another caller type.
				cs.Caller = a.Calls[len(a.Calls)-1].Caller
				a.Calls = append(a.Calls, cs)
			}
		}
		rng.Shuffle(len(a.Calls), func(i, j int) { a.Calls[i], a.Calls[j] = a.Calls[j], a.Calls[i] })
		snap.Actors = append(snap.Actors, a)
	}
	if dup {
		// Two actors of one type share an id: narrowing through ids would
		// reach only the one byID holds.
		snap.Actors[0].Type = snap.Actors[1].Type
	}
	return snap.Index()
}

// TestEvaluateMatchesReference holds Evaluate to the literal cross product
// (specEvaluate) on random policies and snapshots: the same intents in the
// same order, the same RuleFired sequence, the same firing counts, and never
// more contexts examined. Some cases must have narrowed, or the test would
// not be exercising the ref(...) and join narrowing at all.
func TestEvaluateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cases, narrowed := 0, 0
	for cases < 1500 {
		src := genDiffPolicy(rng)
		pol, err := Parse(src)
		if err != nil {
			t.Fatalf("generated policy does not parse: %v\n%s", err, src)
		}
		if _, err := Check(pol, nil); err != nil {
			continue
		}
		cases++
		for k := 0; k < 4; k++ {
			snap := genDiffSnapshot(rng)
			mode := rng.Intn(3)
			d, n := diffEvaluate(pol, snap, mode != 1, mode != 2)
			if d != "" {
				t.Fatalf("case %d: %s\npolicy:\n%s", cases, d, src)
			}
			if n {
				narrowed++
			}
		}
	}
	t.Logf("%d of %d evaluations narrowed", narrowed, 4*cases)
	if narrowed < 300 {
		t.Fatalf("only %d of %d evaluations narrowed", narrowed, 4*cases)
	}
}

// TestEvalJoinOrderFollowsActors: the callers a join visits come in the
// snapshot's Actors order, not in the callee's Calls order nor by id, so a
// colocate rule's intents come out as the cross product orders them.
func TestEvalJoinOrderFollowsActors(t *testing.T) {
	pol := MustParse(`VideoStream(v).call(UserInfo(u).track).count > 0 => colocate(v, u);`)
	b := newSnap().server(0, 0, 0, 0)
	u := b.actor("UserInfo", 0, 0)
	v1 := b.actor("VideoStream", 0, 0)
	v2 := b.actor("VideoStream", 0, 0)
	v3 := b.actor("VideoStream", 0, 0)
	u.Calls = []CallStat{
		{CallerType: "VideoStream", Caller: v2.Ref, Method: "track", Count: 1},
		{CallerType: "VideoStream", Caller: v1.Ref, Method: "track", Count: 1},
		{CallerType: "FrontEnd", Caller: v2.Ref, Method: "track", Count: 1},
		{CallerType: "VideoStream", Caller: v3.Ref, Method: "other", Count: 1},
	}
	// Actors order: v2 before v1.
	b.snap.Actors = []*ActorInfo{u, v2, v1, v3}
	snap := b.build()
	var rec recorder
	in := EvaluateObserved(pol, snap, true, true, &rec)
	if len(in.Colocate) != 2 || in.Colocate[0].A != v2.Ref || in.Colocate[1].A != v1.Ref {
		t.Fatalf("colocate = %+v, want (v2, u) then (v1, u)", in.Colocate)
	}
	if d, _ := diffEvaluate(pol, snap, true, true); d != "" {
		t.Fatal(d)
	}
	// Two contexts checked (u with v2, u with v1), not the three streams.
	if len(rec.evals) != 1 || rec.evals[0].examined != 2 {
		t.Fatalf("evals = %+v, want 2 contexts examined", rec.evals)
	}
}

// TestEvalMaxBindingsSurfaces: a rule the join cannot prune (a call
// comparison true at 0) over 1,025 × 1,024 actors reaches maxBindings, and
// its RuleEvaluated call says the enumeration was cut.
func TestEvalMaxBindingsSurfaces(t *testing.T) {
	pol := MustParse(`B(y).call(A(x).m).count >= 0 => pin(x);`)
	b := newSnap().server(0, 0, 0, 0)
	for i := 0; i < 1025; i++ {
		b.actor("A", 0, 0)
	}
	for i := 0; i < 1024; i++ {
		b.actor("B", 0, 0)
	}
	var rec evalsOnly
	in := EvaluateObserved(pol, b.build(), true, true, &rec)
	if len(rec.evals) != 1 || !rec.evals[0].truncated || rec.evals[0].examined != maxBindings {
		t.Fatalf("evals = %+v, want %d contexts examined and truncated", rec.evals, maxBindings)
	}
	// 1,024 contexts per A: the first 1,024 As fire, the last is cut.
	if len(in.Pin) != 1024 {
		t.Fatalf("pins = %d, want 1024", len(in.Pin))
	}
}
