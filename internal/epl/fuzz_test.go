package epl

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// policyNames lists the actor types, reference properties and methods pol
// mentions, each with one name it does not, so a decoded snapshot holds
// actors the rules can bind and actors they must pass over.
func policyNames(pol *Policy) (types, props, methods []string) {
	types, props, methods = []string{"Other"}, []string{"other"}, []string{"other"}
	for _, r := range pol.Rules {
		WalkRefs(r, func(ref *ActorRef) {
			if t := ref.Type(); t != "" && t != AnyType {
				types = append(types, t)
			}
		})
		for _, ir := range collectInRefs(r.Cond) {
			props = append(props, ir.Prop)
		}
		WalkCmps(r.Cond, func(c *CmpCond) {
			if call, ok := c.Feat.(*CallFeature); ok {
				methods = append(methods, call.FName)
			}
		})
	}
	return types, props, methods
}

// actorCap is how many actors a snapshot for pol may hold: 32, or fewer
// when pol has a rule with so many binding refs that enumerating its
// bindings over 32 actors would take a fuzz iteration seconds.
func actorCap(pol *Policy) int {
	refs := 0
	for _, r := range pol.Rules {
		refs = max(refs, len(r.BindingRefs()))
	}
	n := 32
	for n > 1 && math.Pow(float64(n), float64(refs)) > 1<<14 {
		n--
	}
	return n
}

// decodeSnapshot reads fuzz bytes into the modes Evaluate runs in and an
// indexed snapshot of 1–8 servers, some down, and up to actorCap(pol)
// actors. Actor ids leave gaps; an actor may sit on a server the snapshot
// does not list; property refs and callers may name ids no actor has.
func decodeSnapshot(data []byte, pol *Policy) (snap *Snapshot, resource, interaction bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pick := func(names []string) string { return names[int(next())%len(names)] }
	pct := func() float64 { return float64(next()) / 2 }
	ref := func() actor.Ref { return actor.Ref{ID: actor.ID(next() % 72)} }
	types, props, methods := policyNames(pol)
	callers := append(types[:len(types):len(types)], actor.ClientCaller)

	mode := next() % 3
	resource, interaction = mode != 1, mode != 2
	snap = &Snapshot{}
	servers := 1 + int(next()%8)
	for i := 0; i < servers; i++ {
		snap.Servers = append(snap.Servers, &ServerInfo{
			ID: cluster.MachineID(i), CPUPerc: pct(), MemPerc: pct(), NetPerc: pct(),
			VCPUs: 1 + int(next()%4), Up: next()%8 != 0,
		})
	}
	var id actor.ID
	for n := min(int(next()%33), actorCap(pol)); n > 0; n-- {
		id += 1 + actor.ID(next()%2)
		a := &ActorInfo{
			Ref: actor.Ref{ID: id}, Type: pick(types), Server: cluster.MachineID(int(next()) % (servers + 1)),
			CPUPerc: pct(), MemPerc: pct(), NetPerc: pct(),
			Pinned: next()%4 == 0,
		}
		a.CPUTime, a.MemBytes, a.NetBytes = sim.Duration(next())*sim.Millisecond, int64(next())<<20, int64(next())<<10
		for p := next() % 3; p > 0; p-- {
			if a.Props == nil {
				a.Props = map[string][]actor.Ref{}
			}
			prop := pick(props)
			for r := next() % 4; r > 0; r-- {
				a.Props[prop] = append(a.Props[prop], ref())
			}
		}
		for c := next() % 4; c > 0; c-- {
			cs := CallStat{CallerType: pick(callers), Method: pick(methods), Count: int64(next()), Bytes: int64(next()) << 6}
			if next()%2 == 0 {
				cs.Caller = ref()
			}
			a.Calls = append(a.Calls, cs)
		}
		snap.Actors = append(snap.Actors, a)
	}
	return snap.Index(), resource, interaction
}

// canonical makes a BalanceIntent's NaN bounds (the rule states none) equal
// to themselves, so reflect.DeepEqual can compare two evaluations.
func canonical(in *Intents) *Intents {
	for i := range in.Balance {
		for _, f := range []*float64{&in.Balance[i].Upper, &in.Balance[i].Lower} {
			if math.IsNaN(*f) {
				*f = math.Inf(1)
			}
		}
	}
	return in
}

// nopObserver watches an evaluation; observing must not change it.
type nopObserver struct{}

func (nopObserver) RuleEvaluated(*Rule, int, int)                                 {}
func (nopObserver) RuleFired(*Rule, actor.Ref, cluster.MachineID, []FeatureValue) {}

// checkEvaluate evaluates pol against snap twice, the second time observed,
// and reports the first property that fails: the two intent sets must be
// equal, and every actor and server an intent names must be in the snapshot.
func checkEvaluate(pol *Policy, snap *Snapshot, resource, interaction bool) string {
	in := canonical(Evaluate(pol, snap, resource, interaction))
	again := canonical(EvaluateObserved(pol, snap, resource, interaction, nopObserver{}))
	if !reflect.DeepEqual(in, again) {
		return "a second, observed evaluation gave different intents"
	}
	var refs []actor.Ref
	for _, r := range in.Reserve {
		refs = append(refs, r.Actor)
	}
	for _, p := range append(in.Colocate[:len(in.Colocate):len(in.Colocate)], in.Separate...) {
		refs = append(refs, p.A, p.B)
	}
	for _, p := range in.Pin {
		refs = append(refs, p.Actor)
	}
	for _, r := range refs {
		if snap.Actor(r) == nil {
			return "an intent names actor " + r.String() + ", which is not in the snapshot"
		}
	}
	for _, b := range in.Balance {
		for _, id := range b.Violating {
			if snap.Server(id) == nil {
				return "a balance intent names a server that is not in the snapshot"
			}
		}
	}
	return ""
}

// FuzzEvaluate runs every policy that parses and passes Check against a
// snapshot decoded from bytes (see decodeSnapshot). Evaluate must not panic,
// two evaluations must give the same intents, and an intent may name only
// actors and servers in the snapshot. The corpus is seeded with the paper's
// policies, one rule on actor features, and the lint corpus,
// internal/lint/testdata/*.epl.
func FuzzEvaluate(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "lint", "testdata", "*.epl"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed policies in ../lint/testdata (%v)", err)
	}
	srcs := []string{metadataPolicy, pagerankPolicy, estorePolicy, mediaPolicy, haloPolicy,
		"Worker(w).cpu.perc > 20 and w.mem.size > 9000000 or Worker(x).call(w.run).perc >= 50 => separate(w, x); pin(w);"}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	for i, src := range srcs {
		// A few hundred bytes of quadratic residues each: enough for every
		// field of a full snapshot, and four different snapshots a policy.
		for k := 0; k < 4; k++ {
			data := make([]byte, 640)
			for j := range data {
				data[j] = byte(j*j*7 + j*13 + i*59 + k*k*31 + k)
			}
			f.Add(data, src)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, src string) {
		if len(data) > 4096 || len(src) > 4096 {
			t.Skip("longer inputs only repeat what shorter ones reach")
		}
		pol, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Check(pol, nil); err != nil {
			return
		}
		snap, resource, interaction := decodeSnapshot(data, pol)
		if d := checkEvaluate(pol, snap, resource, interaction); d != "" {
			t.Fatalf("%s\npolicy:\n%s", d, src)
		}
	})
}

// FuzzSchema feeds parseSchema arbitrary bytes, seeded with
// TestReadSchemaRejectsGarbage's rows. It must not panic; a schema it
// accepts must hold one class per entry of the file's "actors" list, each
// under its own non-empty name; and Check of schemaPolicy against an
// accepted schema must not panic.
func FuzzSchema(f *testing.F) {
	for _, row := range schemaRows {
		f.Add([]byte(row.json))
	}
	pol := MustParse(schemaPolicy)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseSchema("fuzz.json", data)
		if err != nil {
			return
		}
		var raw struct{ Actors []json.RawMessage }
		if err := json.Unmarshal(data, &raw); err != nil || len(raw.Actors) != len(s.Actors) {
			t.Fatalf("accepted %q: %d classes from %d entries (unmarshal: %v)", data, len(s.Actors), len(raw.Actors), err)
		}
		for name, c := range s.Actors {
			if name == "" || c == nil || c.Name != name {
				t.Fatalf("accepted %q: class %+v filed under %q", data, c, name)
			}
		}
		Check(pol, s)
	})
}
