package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"plasma/internal/epl"
)

// corpusWant maps every testdata policy to the exact multiset of diagnostic
// codes it must produce under CheckAndAnalyze (clean_* files produce none).
var corpusWant = map[string][]string{
	"clean_halo.epl":               {},
	"clean_hysteresis.epl":         {},
	"clean_metadata.epl":           {},
	"clean_pagerank.epl":           {},
	"dead_var.epl":                 {CodeUnusedVar},
	"flap_inverted.epl":            {CodeFlapping},
	"flap_same_rule.epl":           {CodeFlapping},
	"flap_zero_band.epl":           {CodeFlapping},
	"range_high.epl":               {CodeUnsat, CodeOutOfRange},
	"shadow_colocate_separate.epl": {CodeShadowed, epl.CodeColocateSeparate},
	"shadow_true.epl":              {CodeShadowed, epl.CodePinBalance},
	"taut_atom.epl":                {CodeTautology},
	"taut_or.epl":                  {CodeTautology, CodeFlapping},
	"unsat_branch.epl":             {CodeUnsat},
	"unsat_eq.epl":                 {CodeUnsat, CodeFlapping},
	"unsat_interval.epl":           {CodeUnsat},

	// Provclass-aware passes (the model checker's own verdicts for these
	// live in internal/lint/model's corpus test).
	"clean_provclass.epl":   {},
	"flap_provclass.epl":    {CodeFlapping}, // guarded pair: provclass rule's trigger vs balance rule's
	"shadow_provclass.epl":  {CodeShadowed}, // conflicting preference chains in nested regions
	"osc_cross_rule.epl":    {},             // EPL010-clean: +5 band — only the model checker sees the cycle
	"dead_overload.epl":     {},
	"unreachable_scale.epl": {},
	"deadend_warmpool.epl":  {},
	"assert_ok.epl":         {},
	"assert_viol.epl":       {},
	"bad_assert.epl":        {}, // the EPL211 annotation error is a model-checker finding
}

func analyzeFile(t *testing.T, path string) []Diagnostic {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := epl.Parse(string(data))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	diags, err := CheckAndAnalyze(pol, nil)
	if err != nil {
		t.Fatalf("check %s: %v", path, err)
	}
	return diags
}

func TestPolicyCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.epl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 13 {
		t.Fatalf("corpus has %d policies, want at least 13", len(files))
	}
	seen := map[string]bool{}
	for _, path := range files {
		name := filepath.Base(path)
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			want, ok := corpusWant[name]
			if !ok {
				t.Fatalf("corpus file %s has no expected-code entry; add it to corpusWant", name)
			}
			var got []string
			for _, d := range analyzeFile(t, path) {
				got = append(got, d.Code)
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if len(got) == 0 && len(sorted) == 0 {
				return
			}
			if !reflect.DeepEqual(got, sorted) {
				t.Fatalf("codes = %v, want %v\ndiagnostics:\n%s", got, sorted, renderDiags(analyzeFile(t, path)))
			}
		})
	}
	for name := range corpusWant {
		if !seen[name] {
			t.Errorf("corpusWant lists %s but the file does not exist", name)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	s := ""
	for _, d := range diags {
		s += "  " + d.String() + "\n"
	}
	return s
}

// TestCorpusSeverities pins the severity contract: whole-condition
// unsatisfiability is an error (EMR refuses the policy), partial-branch
// unsatisfiability and the behavioral hazards are warnings, and unused
// declarations are informational.
func TestCorpusSeverities(t *testing.T) {
	cases := []struct {
		file string
		code string
		sev  Severity
	}{
		{"unsat_interval.epl", CodeUnsat, Error},
		{"unsat_branch.epl", CodeUnsat, Warning},
		{"flap_zero_band.epl", CodeFlapping, Warning},
		{"shadow_true.epl", CodeShadowed, Warning},
		{"dead_var.epl", CodeUnusedVar, Info},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			for _, d := range analyzeFile(t, filepath.Join("testdata", c.file)) {
				if d.Code == c.code {
					if d.Severity != c.sev {
						t.Fatalf("%s severity = %v, want %v", c.code, d.Severity, c.sev)
					}
					return
				}
			}
			t.Fatalf("%s not produced for %s", c.code, c.file)
		})
	}
}

// TestShadowingReportsAllRules asserts the shadowing diagnostic names both
// the shadowed and the shadowing rule.
func TestShadowingReportsAllRules(t *testing.T) {
	for _, d := range analyzeFile(t, filepath.Join("testdata", "shadow_true.epl")) {
		if d.Code == CodeShadowed {
			if !reflect.DeepEqual(d.Rules, []int{0, 1}) {
				t.Fatalf("Rules = %v, want [0 1]", d.Rules)
			}
			return
		}
	}
	t.Fatal("no shadowing diagnostic produced")
}

// TestShadowingCoversEveryConflictClass asserts EPL020 reads epl's §4.3
// class table: a later rule contained in an earlier one is shadowed under
// each of the five classes epl.Check warns on, balance vs colocate included.
func TestShadowingCoversEveryConflictClass(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"true => colocate(A(a), B(b));\nserver.cpu.perc > 80 => separate(A(x), B(y));",
			`colocate vs separate of types "A" and "B"`},
		{"true => pin(A);\nserver.cpu.perc > 80 => balance({A}, cpu);", `pin vs balance of type "A"`},
		{"true => pin(A);\nserver.cpu.perc > 80 => reserve(A, cpu);", `pin vs reserve of type "A"`},
		{"true => reserve(A, cpu);\nserver.cpu.perc > 80 => balance({A}, cpu);", `reserve vs balance of type "A"`},
		{"true => balance({A}, cpu);\nserver.cpu.perc > 80 => colocate(A(a), B(b));",
			`balance vs colocate of types "A" and "B"`},
	} {
		diags := AnalyzePolicy(epl.MustParse(c.src))
		found := false
		for _, d := range diags {
			found = found || d.Code == CodeShadowed && strings.Contains(d.Message, c.want)
		}
		if !found {
			t.Errorf("%q: no EPL020 naming %s:\n%s", c.src, c.want, renderDiags(diags))
		}
	}
}

// TestPaperPoliciesLoadable asserts none of the five §3.3 paper policies
// produce an error-severity finding, i.e. core.World.Manage accepts all of
// them.
func TestPaperPoliciesLoadable(t *testing.T) {
	srcs := map[string]string{
		"metadata": `
server.cpu.perc > 80 and
client.call(Folder(fo).open).perc > 40 and
File(fi) in ref(fo.files) =>
    reserve(fo, cpu); colocate(fo, fi);
`,
		"pagerank": `
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Partition}, cpu);
`,
		"estore": `
server.cpu.perc > 80 and
client.call(Partition(p1).read).perc > 30 =>
    reserve(p1, cpu);
Partition(p2) in ref(Partition(p1).children) =>
    colocate(p1, p2);
server.cpu.perc < 50 => balance({Partition}, cpu);
`,
		"media": `
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
`,
		"halo": `
Player(p) in ref(Session(s).players) =>
    pin(s); colocate(p, s);
`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			pol := epl.MustParse(src)
			diags, err := CheckAndAnalyze(pol, nil)
			if err != nil {
				t.Fatal(err)
			}
			if max := MaxSeverity(diags); max >= Error {
				t.Fatalf("paper policy produces error-severity findings:\n%s", renderDiags(diags))
			}
		})
	}
}
