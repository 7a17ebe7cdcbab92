package epl

import (
	"strings"
	"testing"
)

// The five §3.3 example policies, verbatim from the paper (modulo
// whitespace).
const (
	metadataPolicy = `
server.cpu.perc > 80 and
client.call(Folder(fo).open).perc > 40 and
File(fi) in ref(fo.files) =>
    reserve(fo, cpu); colocate(fo, fi);
`
	pagerankPolicy = `
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Partition}, cpu);
`
	estorePolicy = `
server.cpu.perc > 80 and
client.call(Partition(p1).read).perc > 30 =>
    reserve(p1, cpu);
Partition(p2) in ref(Partition(p1).children) =>
    colocate(p1, p2);
server.cpu.perc < 50 => balance({Partition}, cpu);
`
	mediaPolicy = `
server.net.perc > 80 or server.net.perc < 60 =>
    balance({FrontEnd}, net);
server.cpu.perc > 50 => reserve(VideoStream(v), cpu);
VideoStream(v).call(UserInfo(u).track).count > 0 =>
    pin(v); colocate(v, u);
ReviewEditor(r).call(UserReview(u).update).count > 0 =>
    pin(r); colocate(r, u);
true => pin(MovieReview(m));
server.cpu.perc > 90 or server.cpu.perc < 70 =>
    balance({ReviewChecker}, cpu);
`
	haloPolicy = `
Player(p) in ref(Session(s).players) =>
    pin(s); colocate(p, s);
`
)

func TestParsePaperPolicies(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		rules int
	}{
		{"metadata", metadataPolicy, 1},
		{"pagerank", pagerankPolicy, 1},
		{"estore", estorePolicy, 3},
		{"media", mediaPolicy, 6},
		{"halo", haloPolicy, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pol, err := Parse(c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if len(pol.Rules) != c.rules {
				t.Fatalf("rules = %d, want %d", len(pol.Rules), c.rules)
			}
		})
	}
}

func TestParseMetadataStructure(t *testing.T) {
	pol := MustParse(metadataPolicy)
	r := pol.Rules[0]
	if len(r.Vars) != 2 || r.Vars[0].Name != "fo" || r.Vars[1].Name != "fi" {
		t.Fatalf("vars = %+v", r.Vars)
	}
	if r.Vars[0].Type != "Folder" || r.Vars[1].Type != "File" {
		t.Fatalf("var types = %+v", r.Vars)
	}
	if len(r.Behaviors) != 2 {
		t.Fatalf("behaviors = %d", len(r.Behaviors))
	}
	res, ok := r.Behaviors[0].(*ReserveBeh)
	if !ok || res.Actor.Decl == nil || res.Actor.Decl.Name != "fo" || res.Res != CPU {
		t.Fatalf("behavior[0] = %v", r.Behaviors[0])
	}
	col, ok := r.Behaviors[1].(*ColocateBeh)
	if !ok || col.A.Decl.Name != "fo" || col.B.Decl.Name != "fi" {
		t.Fatalf("behavior[1] = %v", r.Behaviors[1])
	}
	// Condition is a conjunction ending with an InRef.
	and1, ok := r.Cond.(*AndCond)
	if !ok {
		t.Fatalf("cond = %T", r.Cond)
	}
	if _, ok := and1.R.(*InRefCond); !ok {
		t.Fatalf("rightmost cond = %T, want InRefCond", and1.R)
	}
}

func TestParseBalanceBounds(t *testing.T) {
	pol := MustParse(pagerankPolicy)
	r := pol.Rules[0]
	bal, ok := r.Behaviors[0].(*BalanceBeh)
	if !ok || bal.Res != CPU || len(bal.Types) != 1 || bal.Types[0] != "Partition" {
		t.Fatalf("balance = %v", r.Behaviors[0])
	}
	upper, lower := CondBounds(r.Cond, CPU)
	if upper != 80 || lower != 60 {
		t.Fatalf("bounds = %v/%v, want 80/60", upper, lower)
	}
}

func TestParseCallFeatureWithActorCaller(t *testing.T) {
	pol := MustParse(mediaPolicy)
	r := pol.Rules[2] // VideoStream(v).call(UserInfo(u).track).count > 0
	cmp, ok := r.Cond.(*CmpCond)
	if !ok {
		t.Fatalf("cond = %T", r.Cond)
	}
	cf, ok := cmp.Feat.(*CallFeature)
	if !ok || cf.Client || cf.Caller.Type() != "VideoStream" || cf.Callee.Type() != "UserInfo" || cf.FName != "track" {
		t.Fatalf("call feature = %v", cmp.Feat)
	}
	if cmp.Stat != Count || cmp.Op != GT || cmp.Val != 0 {
		t.Fatalf("cmp = %v", cmp)
	}
}

func TestParseTrueRule(t *testing.T) {
	pol := MustParse(`true => pin(MovieReview(m));`)
	r := pol.Rules[0]
	if _, ok := r.Cond.(*TrueCond); !ok {
		t.Fatalf("cond = %T", r.Cond)
	}
	pin := r.Behaviors[0].(*PinBeh)
	if pin.Actor.Type() != "MovieReview" {
		t.Fatalf("pin type = %s", pin.Actor.Type())
	}
}

func TestParseAnyType(t *testing.T) {
	pol := MustParse(`any(a).cpu.perc > 50 => reserve(a, cpu);`)
	r := pol.Rules[0]
	if r.Vars[0].Type != AnyType {
		t.Fatalf("var type = %q, want any", r.Vars[0].Type)
	}
}

func TestParseMultipleBalanceTypes(t *testing.T) {
	pol := MustParse(`server.cpu.perc > 80 => balance({Worker, Table}, cpu);`)
	bal := pol.Rules[0].Behaviors[0].(*BalanceBeh)
	if len(bal.Types) != 2 || bal.Types[0] != "Worker" || bal.Types[1] != "Table" {
		t.Fatalf("types = %v", bal.Types)
	}
}

func TestParseSeparate(t *testing.T) {
	pol := MustParse(`true => separate(Leaf(a), Leaf2(b));`)
	sep := pol.Rules[0].Behaviors[0].(*SeparateBeh)
	if sep.A.Type() != "Leaf" || sep.B.Type() != "Leaf2" {
		t.Fatalf("separate = %v", sep)
	}
}

func TestParseComments(t *testing.T) {
	pol := MustParse(`
# balance partitions
// alt comment style
server.cpu.perc > 80 => balance({P}, cpu); # trailing
`)
	if len(pol.Rules) != 1 {
		t.Fatalf("rules = %d", len(pol.Rules))
	}
}

func TestParseParenthesizedCond(t *testing.T) {
	pol := MustParse(`(server.cpu.perc > 80 or server.cpu.perc < 60) and true => balance({P}, cpu);`)
	if _, ok := pol.Rules[0].Cond.(*AndCond); !ok {
		t.Fatalf("cond = %T", pol.Rules[0].Cond)
	}
}

func TestParseOperators(t *testing.T) {
	pol := MustParse(`
server.cpu.perc >= 80 => balance({A}, cpu);
server.cpu.perc <= 20 => balance({A}, cpu);
`)
	c0 := pol.Rules[0].Cond.(*CmpCond)
	c1 := pol.Rules[1].Cond.(*CmpCond)
	if c0.Op != GE || c1.Op != LE {
		t.Fatalf("ops = %v, %v", c0.Op, c1.Op)
	}
}

func TestParseFractionalValue(t *testing.T) {
	pol := MustParse(`server.cpu.perc > 82.5 => balance({A}, cpu);`)
	if pol.Rules[0].Cond.(*CmpCond).Val != 82.5 {
		t.Fatal("fractional value lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"empty", "", "empty policy"},
		{"missing arrow", `server.cpu.perc > 80 balance({A}, cpu);`, "expected"},
		{"bad stat", `server.cpu.bogus > 80 => balance({A}, cpu);`, "statistic"},
		{"bad resource", `server.gpu.perc > 80 => balance({A}, cpu);`, "resource"},
		{"bad behavior", `true => explode(A);`, "behavior"},
		{"missing semi", `true => pin(A(a))`, "';'"},
		{"lone equals", `server.cpu.perc = 80 => balance({A}, cpu);`, "'=>'"},
		{"bad char", `server.cpu.perc > 80 ! => balance({A}, cpu);`, "unexpected character"},
		{"redeclared var", `Folder(x).cpu.perc > 1 and File(x) in ref(x.files) => pin(x);`, "already declared"},
		{"count on resource", ``, ""}, // checked in check_test
	}
	for _, c := range cases {
		if c.src == "" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("true =>\n  explode(A);")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Pos.Line != 2 {
		t.Fatalf("error line = %d, want 2", perr.Pos.Line)
	}
}

func TestPolicyRoundTripThroughString(t *testing.T) {
	pol := MustParse(mediaPolicy)
	again, err := Parse(pol.String())
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, pol.String())
	}
	if len(again.Rules) != len(pol.Rules) {
		t.Fatalf("round trip rules = %d, want %d", len(again.Rules), len(pol.Rules))
	}
	if again.String() != pol.String() {
		t.Fatalf("String() not a fixpoint:\n%s\nvs\n%s", pol.String(), again.String())
	}
}

func TestResourceAndInteractionRuleSplit(t *testing.T) {
	// E-Store: rules 1 (reserve) and 3 (balance) are [r-r], rule 2
	// (colocate) is [r-i].
	for i, r := range MustParse(estorePolicy).Rules {
		wantRes, wantInter := i != 1, i == 1
		if r.HasResourceBehavior() != wantRes || r.HasInteractionBehavior() != wantInter {
			t.Fatalf("estore rule %d: resource=%v interaction=%v, want %v %v",
				i+1, r.HasResourceBehavior(), r.HasInteractionBehavior(), wantRes, wantInter)
		}
	}
	// The metadata rule has both reserve and colocate: it is both.
	mpol := MustParse(metadataPolicy)
	if len(mpol.Rules) != 1 || !mpol.Rules[0].HasResourceBehavior() || !mpol.Rules[0].HasInteractionBehavior() {
		t.Fatal("mixed rule should be both [r-r] and [r-i]")
	}
}

func TestVarUsableAcrossCondAndBehavior(t *testing.T) {
	// Declaration inside a behavior argument (media rule 2 style).
	pol := MustParse(`server.cpu.perc > 50 => reserve(VideoStream(v), cpu);`)
	r := pol.Rules[0]
	if len(r.Vars) != 1 || r.Vars[0].Name != "v" || r.Vars[0].Type != "VideoStream" {
		t.Fatalf("vars = %+v", r.Vars)
	}
}
