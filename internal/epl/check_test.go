package epl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mediaSchema() *Schema {
	return NewSchema(
		Class("FrontEnd", []string{"request"}, nil),
		Class("VideoStream", []string{"watch"}, nil),
		Class("UserInfo", []string{"track"}, nil),
		Class("ReviewEditor", []string{"edit"}, nil),
		Class("UserReview", []string{"update"}, nil),
		Class("MovieReview", []string{"read"}, nil),
		Class("ReviewChecker", []string{"check"}, nil),
		Class("UserDB", []string{"get"}, nil),
	)
}

func TestCheckPaperPoliciesAgainstSchemas(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		schema *Schema
	}{
		{"metadata", metadataPolicy, NewSchema(
			Class("Folder", []string{"open"}, []string{"files"}),
			Class("File", []string{"read", "write"}, nil),
		)},
		{"pagerank", pagerankPolicy, NewSchema(
			Class("Partition", []string{"compute"}, nil),
		)},
		{"estore", estorePolicy, NewSchema(
			Class("Partition", []string{"read"}, []string{"children"}),
		)},
		{"media", mediaPolicy, mediaSchema()},
		{"halo", haloPolicy, NewSchema(
			Class("Router", []string{"route"}, nil),
			Class("Session", []string{"heartbeat"}, []string{"players"}),
			Class("Player", []string{"update"}, nil),
		)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pol := MustParse(c.src)
			if _, err := Check(pol, c.schema); err != nil {
				t.Fatalf("check: %v", err)
			}
		})
	}
}

func TestCheckUnknownType(t *testing.T) {
	pol := MustParse(`server.cpu.perc > 80 => balance({Ghost}, cpu);`)
	_, err := Check(pol, NewSchema(Class("Real", nil, nil)))
	if err == nil || !strings.Contains(err.Error(), "unknown actor type") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckUnknownFunction(t *testing.T) {
	pol := MustParse(`client.call(Folder(f).bogus).count > 3 => pin(f);`)
	_, err := Check(pol, NewSchema(Class("Folder", []string{"open"}, nil)))
	if err == nil || !strings.Contains(err.Error(), "no function") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckUnknownProp(t *testing.T) {
	pol := MustParse(`File(fi) in ref(Folder(fo).bogus) => colocate(fo, fi);`)
	_, err := Check(pol, NewSchema(
		Class("Folder", nil, []string{"files"}),
		Class("File", nil, nil),
	))
	if err == nil || !strings.Contains(err.Error(), "no property") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckCountOnResourceFeature(t *testing.T) {
	pol := MustParse(`server.cpu.count > 3 => balance({A}, cpu);`)
	_, err := Check(pol, nil)
	if err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckBalanceRejectsVariables(t *testing.T) {
	pol := MustParse(`Partition(p).cpu.perc > 30 => balance({p}, cpu);`)
	_, err := Check(pol, nil)
	if err == nil || !strings.Contains(err.Error(), "variable") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckNilSchemaSkipsNames(t *testing.T) {
	pol := MustParse(`client.call(Anything(a).whatever).count > 0 => pin(a);`)
	if _, err := Check(pol, nil); err != nil {
		t.Fatalf("nil schema should skip name checks: %v", err)
	}
}

func TestConflictColocateSeparate(t *testing.T) {
	pol := MustParse(`
true => colocate(A(a), B(b));
true => separate(A(x), B(y));
`)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(warns, "colocated and separated") {
		t.Fatalf("warnings = %v", warns)
	}
}

func TestConflictPinBalance(t *testing.T) {
	pol := MustParse(`
true => pin(Worker(w));
server.cpu.perc > 80 => balance({Worker}, cpu);
`)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(warns, "pinned but also subject to balance") {
		t.Fatalf("warnings = %v", warns)
	}
}

func TestConflictReserveBalance(t *testing.T) {
	// The E-Store policy intentionally reserves and balances Partitions;
	// the compiler should warn, and the runtime resolves it by priority.
	pol := MustParse(estorePolicy)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(warns, "reserved and balanced") {
		t.Fatalf("warnings = %v", warns)
	}
}

func TestConflictBalanceBreaksColocation(t *testing.T) {
	pol := MustParse(`
Partition(p2) in ref(Partition(p1).children) => colocate(p1, p2);
server.cpu.perc > 80 => balance({Partition}, cpu);
`)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(warns, "balance may break colocation") {
		t.Fatalf("warnings = %v", warns)
	}
}

func TestNoFalseConflicts(t *testing.T) {
	pol := MustParse(haloPolicy)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	// pin(Session) + colocate(Player, Session): no conflict.
	if len(warns) != 0 {
		t.Fatalf("unexpected warnings: %v", warns)
	}
}

func hasWarning(warns []Warning, substr string) bool {
	for _, w := range warns {
		if strings.Contains(w.Msg, substr) {
			return true
		}
	}
	return false
}

func warnsByCode(warns []Warning, code string) []Warning {
	var out []Warning
	for _, w := range warns {
		if w.Code == code {
			out = append(out, w)
		}
	}
	return out
}

func TestConflictCodesAndRules(t *testing.T) {
	pol := MustParse(`
true => pin(Worker(w));
server.cpu.perc > 80 => balance({Worker}, cpu);
`)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb := warnsByCode(warns, CodePinBalance)
	if len(pb) != 1 {
		t.Fatalf("want one %s warning, got %v", CodePinBalance, warns)
	}
	w := pb[0]
	if len(w.Rules) != 2 || w.Rules[0] != 0 || w.Rules[1] != 1 {
		t.Fatalf("Rules = %v, want [0 1]", w.Rules)
	}
	if w.Pos.Line == 0 {
		t.Fatalf("warning lost its position: %+v", w)
	}
}

func TestConflictEveryOccurrenceReported(t *testing.T) {
	// The same colocate/separate pair occurs in two separate rules; each
	// occurrence gets its own positioned warning, all naming all rules.
	pol := MustParse(`
true => colocate(A(a), B(b));
true => colocate(A(c), B(d));
true => separate(A(x), B(y));
`)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := warnsByCode(warns, CodeColocateSeparate)
	if len(cs) != 2 {
		t.Fatalf("want a warning per colocate occurrence, got %v", warns)
	}
	if cs[0].Pos.Line == cs[1].Pos.Line {
		t.Fatalf("occurrences share a position: %v", cs)
	}
	for _, w := range cs {
		if len(w.Rules) != 3 {
			t.Fatalf("Rules = %v, want all of [0 1 2]", w.Rules)
		}
	}
}

func TestWarningStringIncludesCode(t *testing.T) {
	pol := MustParse(`
true => pin(Worker(w));
server.cpu.perc > 80 => balance({Worker}, cpu);
`)
	warns, err := Check(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb := warnsByCode(warns, CodePinBalance)
	if len(pb) == 0 || !strings.Contains(pb[0].String(), CodePinBalance) {
		t.Fatalf("warning string missing code: %v", warns)
	}
}

// schemaRows are schema files ReadSchema must reject (want names the
// error) or accept (want == ""): a null entry once panicked, and an unknown
// key — a subtype "parent", a misspelt "functions" — was once silently
// ignored. FuzzSchema seeds its corpus from them.
var schemaRows = []struct {
	name, json, want string
}{
	{"null", `{"actors":[null]}`, "null"},
	{"empty name", `{"actors":[{"name":""}]}`, "no name"},
	{"duplicate name", `{"actors":[{"name":"A"},{"name":"A"}]}`, "declared twice"},
	{"parent", `{"actors":[{"name":"A","functions":["f"],"props":["p"],"parent":"B"},{"name":"B"}]}`, `unknown field "parent"`},
	{"misspelt key", `{"actors":[{"name":"A","fuctions":["f"],"props":["p"]},{"name":"B"}]}`, `unknown field "fuctions"`},
	{"trailing data", `{"actors":[{"name":"A"}]} {}`, "data after the schema object"},
	{"good", `{"actors":[{"name":"A","functions":["f"],"props":["p"]},{"name":"B"}]}`, ""},
}

// schemaPolicy names the classes, function and property of schemaRows'
// good row, so checking it against a schema reads every declaration kind.
const schemaPolicy = `client.call(A(a).f).count > 0 and B(b) in ref(a.p) => colocate(a, b);`

// TestReadSchemaRejectsGarbage feeds ReadSchema the schemaRows files. Each
// bad one must come back as a bad-schema error naming its fault; the good
// one must check schemaPolicy.
func TestReadSchemaRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range schemaRows {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := ReadSchema(path)
		if err == nil {
			_, err = Check(MustParse(schemaPolicy), s)
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "epl: bad schema ") || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want a bad-schema error naming %q", tc.name, err, tc.want)
		}
	}
}
