package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// seedOne holds each id's untraced seed-1 run and its record, the way
// plasma-sim and plasma-bench run it, made once per test binary:
// TestAllQuickIDsDeterministic holds it to the traced run,
// TestRunSweepsEveryPeriodAndArm reads its record, and every test below
// reads it, so no id runs untraced twice. The package's tests run
// sequentially, so the map needs no lock.
var seedOne = map[string]seedOneRun{}

type seedOneRun struct {
	r   *Result
	rec *simTracker
}

func runSeedOne(t *testing.T, id string) (*Result, *simTracker) {
	t.Helper()
	if c, ok := seedOne[id]; ok {
		return c.r, c.rec
	}
	i := slices.IndexFunc(table, func(e experiment) bool { return e.id == id })
	if i < 0 {
		t.Fatalf("unknown id %q", id)
	}
	rec := &simTracker{}
	r := table[i].exec(Config{Seed: 1}, rec)
	seedOne[id] = seedOneRun{r, rec}
	return r, rec
}

// claimHolds reads one id's seed-1 run and fails with its claim's error.
func claimHolds(t *testing.T, id string) *Result {
	t.Helper()
	r, _ := runSeedOne(t, id)
	if r.Claim != nil {
		t.Fatalf("%s claim fails at seed 1: %v", id, r.Claim)
	}
	return r
}

// The per-id shape tests: each is its row's claim (experiments.go), which
// encodes the paper's qualitative result — who wins and in which direction,
// not absolute AWS numbers.

func TestTable1AllAppsCompile(t *testing.T)                      { claimHolds(t, "table1") }
func TestTable3OverheadWithinPaperBound(t *testing.T)            { claimHolds(t, "table3") }
func TestFig5ShapesMatchPaper(t *testing.T)                      { claimHolds(t, "fig5") }
func TestFig6aPlasmaBeatsOrleans(t *testing.T)                   { claimHolds(t, "fig6a") }
func TestFig6bFewerServersSimilarBallpark(t *testing.T)          { claimHolds(t, "fig6b") }
func TestFig7aPlasmaGainExceedsMizan(t *testing.T)               { claimHolds(t, "fig7a") }
func TestFig7bcImbalanceShrinks(t *testing.T)                    { claimHolds(t, "fig7bc") }
func TestFig8ScaleOutImprovesIterations(t *testing.T)            { claimHolds(t, "fig8") }
func TestFig9PlasmaMatchesInApp(t *testing.T)                    { claimHolds(t, "fig9") }
func TestFig10ShorterPeriodReclaimsFaster(t *testing.T)          { claimHolds(t, "fig10") }
func TestFig11aInterRuleSmoother(t *testing.T)                   { claimHolds(t, "fig11a") }
func TestFig11bMisplacedPayUntilRedistribution(t *testing.T)     { claimHolds(t, "fig11b") }
func TestFig11cSpikeThenStabilizeAndGEMsComparable(t *testing.T) { claimHolds(t, "fig11c") }

// The four applications that exist only as Table 1 rows: each one's policy
// parses and checks against its schema.
func TestPolicyChecksAgainstSchema(t *testing.T) {
	rows := map[string][]string{}
	for _, row := range claimHolds(t, "table1").Rows {
		rows[row[0]] = row
	}
	for _, tc := range []struct{ name, app string }{
		{"bptree", "B+ tree"},
		{"cassandra", "Cassandra"},
		{"piccolo", "Piccolo"},
		{"zexpander", "zExpander"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row, ok := rows[tc.app]
			if !ok {
				t.Fatalf("no Table 1 row for %s", tc.app)
			}
			if row[3] != "yes" {
				t.Fatalf("%s policy does not check against its schema: %s", tc.app, row[3])
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("bogus", Config{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRenderIncludesHeaderAndSummary(t *testing.T) {
	out := claimHolds(t, "table1").Render()
	for _, want := range []string{"table1", "Application", "Metadata Server", "summary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The table is the list of experiments: ids unique and sorted (IDs and the
// plasma-bench report follow its order), and every row complete.
func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != len(table) || !sort.StringsAreSorted(ids) {
		t.Fatalf("ids not in sorted table order: %v", ids)
	}
	for i, e := range table {
		if i > 0 && e.id == table[i-1].id {
			t.Errorf("id %q listed twice", e.id)
		}
		if e.id == "" || e.title == "" || e.run == nil || e.claim == nil {
			t.Errorf("row %d (%q) lacks an id, title, runner or claim", i, e.id)
		}
	}
}

// Seed 0 is a seed like any other: the run is labelled with it, not
// silently replaced by seed 1.
func TestSeedZeroRunsSeedZero(t *testing.T) {
	r, err := Run("stream_chaos", Config{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0]; got != "0" {
		t.Fatalf("Config{Seed: 0} ran as seed %s", got)
	}
}

// TestOnlySizedReadsFull is the one-sizing rule, enforced: sized in
// experiments.go is the only non-test code in the package that reads
// Config.Full. Each runner takes its sizes as a value from its table row.
func TestOnlySizedReadsFull(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	reads := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Full" {
				if path == "experiments.go" {
					reads++
				} else {
					t.Errorf("%s:%d: reads .Full; take the sizes as a value from the table's sized",
						path, fset.Position(sel.Pos()).Line)
				}
			}
			return true
		})
	}
	if reads != 1 {
		t.Fatalf("experiments.go reads .Full %d times; sized is the one reader", reads)
	}
}
