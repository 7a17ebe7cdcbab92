package model

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/lint"
)

// corpusDir is the shared lint policy corpus.
const corpusDir = "../testdata"

// modelWant pins the exact multiset of model-checker codes per corpus
// policy under its annotated (or default) envelope. Every corpus file
// must be listed: a new policy without a verdict here fails the test.
var modelWant = map[string][]string{
	"clean_halo.epl":               {},
	"clean_hysteresis.epl":         {},
	"clean_metadata.epl":           {},
	"clean_pagerank.epl":           {},
	"clean_provclass.epl":          {},
	"dead_var.epl":                 {},
	"shadow_colocate_separate.epl": {},
	"shadow_true.epl":              {},
	"shadow_provclass.epl":         {},
	"flap_provclass.epl":           {}, // EPL010 pairs the guarded thresholds, but provclass alone never scales: no real cycle
	"flap_inverted.epl":            {lint.CodeOscillation},
	"flap_same_rule.epl":           {lint.CodeOscillation},
	"flap_zero_band.epl":           {lint.CodeOscillation},
	"taut_atom.epl":                {lint.CodeOscillation},
	"taut_or.epl":                  {lint.CodeOscillation},
	"osc_cross_rule.epl":           {lint.CodeOscillation}, // EPL010-clean (band +5) yet oscillates: the semantic generalization
	"range_high.epl":               {lint.CodeOverloadDead, lint.CodeUnreachRule},
	"unsat_branch.epl":             {lint.CodeOverloadDead},
	"unsat_eq.epl":                 {lint.CodeOverloadDead, lint.CodeUnreachRule},
	"unsat_interval.epl":           {lint.CodeOverloadDead, lint.CodeUnreachRule},
	"dead_overload.epl":            {lint.CodeOverloadDead},
	"unreachable_scale.epl":        {lint.CodeUnreachRule},
	"deadend_warmpool.epl":         {lint.CodePoolDeadEnd},
	"assert_ok.epl":                {},
	"assert_viol.epl":              {lint.CodeOverloadDead, lint.CodeProbBound},
	"bad_assert.epl":               {lint.CodeBadAnnotation},
}

func checkFile(t *testing.T, path string) []Finding {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := epl.Parse(string(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if _, err := epl.Check(pol, nil); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return Check(pol)
}

// TestModelCorpus runs the model checker over every corpus policy and
// compares the finding codes against the pinned verdicts.
func TestModelCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.epl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus policies found")
	}
	start := time.Now()
	for _, path := range files {
		name := filepath.Base(path)
		want, ok := modelWant[name]
		if !ok {
			t.Errorf("%s: corpus policy has no modelWant verdict", name)
			continue
		}
		findings := checkFile(t, path)
		var got []string
		for _, f := range findings {
			got = append(got, f.Code)
		}
		sort.Strings(got)
		wantSorted := append([]string(nil), want...)
		sort.Strings(wantSorted)
		if strings.Join(got, ",") != strings.Join(wantSorted, ",") {
			t.Errorf("%s: model codes = [%s], want [%s]\n%s",
				name, strings.Join(got, ","), strings.Join(wantSorted, ","), renderFindings(findings))
		}
	}
	// The acceptance bar: the whole corpus model-checks in seconds so
	// make verify can absorb it.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("corpus model check took %v, want under 5s", elapsed)
	}
}

func renderFindings(findings []Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&sb, "  %s\n%s", f.Diagnostic.String(), FormatPath(f))
	}
	return sb.String()
}

// TestModelFindingsCarryCounterexamples asserts that every reachability
// finding ships a non-empty tick-by-tick path (EPL202 is existence of
// nothing, so it has none).
func TestModelFindingsCarryCounterexamples(t *testing.T) {
	for name := range modelWant {
		findings := checkFile(t, filepath.Join(corpusDir, name))
		for _, f := range findings {
			switch f.Code {
			case lint.CodeOscillation, lint.CodeOverloadDead, lint.CodePoolDeadEnd, lint.CodeProbBound:
				if len(f.Path) == 0 {
					t.Errorf("%s: %s finding has no counterexample path", name, f.Code)
				}
			}
			if f.Code == lint.CodeOscillation {
				if f.CycleFrom < 0 || f.CycleFrom >= len(f.Path) {
					t.Errorf("%s: oscillation cycle start %d outside path of %d steps", name, f.CycleFrom, len(f.Path))
				}
			}
		}
	}
}

// policyConstRe extracts backtick policy constants from example programs.
var policyConstRe = regexp.MustCompile("(?s)Policy[A-Za-z]*Src = `([^`]*)`|const policy = `([^`]*)`")

// TestShippedPoliciesModelClean is the EPL2xx gate over shipped policies:
// every paper application policy (internal/apps, plus the four Table 1
// policies that experiments/table1.go holds without an app package) and
// example program policy (examples/) must come out of the model checker
// clean.
func TestShippedPoliciesModelClean(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../../apps/*/*.go", "../../experiments/table1.go", "../../../examples/*/main.go"} {
		fs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range policyConstRe.FindAllStringSubmatch(string(data), -1) {
			src := m[1] + m[2]
			if !strings.Contains(src, "=>") || strings.Contains(src, "%s") {
				continue // not a complete policy literal
			}
			pol, err := epl.Parse(src)
			if err != nil {
				t.Errorf("%s: embedded policy does not parse: %v", path, err)
				continue
			}
			if _, err := epl.Check(pol, nil); err != nil {
				t.Errorf("%s: embedded policy does not check: %v", path, err)
				continue
			}
			checked++
			for _, f := range Check(pol) {
				t.Errorf("%s: shipped policy has model finding %s: %s", path, f.Code, f.Message)
			}
		}
	}
	// The exact count: a glob or a policy literal that stops matching fails
	// here instead of silently leaving a policy unchecked.
	if checked != 12 {
		t.Fatalf("checked %d shipped policies, want 12; a glob or the literal pattern has drifted", checked)
	}
}

// policyLiteralRe extracts every backtick literal holding a rule.
var policyLiteralRe = regexp.MustCompile("`([^`]*=>[^`]*)`")

// firedRules records which rules an evaluation fired.
type firedRules map[*epl.Rule]bool

func (f firedRules) RuleEvaluated(rule *epl.Rule, _, fired int, _ bool)                  { f[rule] = fired > 0 }
func (firedRules) RuleFired(*epl.Rule, actor.Ref, cluster.MachineID, []epl.FeatureValue) {}

// TestProvClassIntentsMatchChain holds the EMR's provisioning preference to
// the chain the model reads: over the lint corpus, every policy literal in
// the shipped Go sources (a %s template filled with "warm, container") and a
// rule with two provclass behaviors, each rule with a provclass chain must
// fire on a grid of 125 servers, and where it fires its provclass intents'
// classes, concatenated, must equal its ProvClassChain().
func TestProvClassIntentsMatchChain(t *testing.T) {
	srcs := []string{`server.cpu.perc > 50 => provclass({warm}); provclass({container});`}
	epls, err := filepath.Glob(filepath.Join(corpusDir, "*.epl"))
	if err != nil {
		t.Fatal(err)
	}
	var gos []string
	for _, pattern := range []string{"../../*/*.go", "../../apps/*/*.go", "../../../examples/*/main.go"} {
		fs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		gos = append(gos, fs...)
	}
	for _, path := range append(epls, gos...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, ".epl") {
			srcs = append(srcs, string(data))
			continue
		}
		for _, m := range policyLiteralRe.FindAllStringSubmatch(string(data), -1) {
			srcs = append(srcs, strings.ReplaceAll(m[1], "%s", "warm, container"))
		}
	}

	snap := &epl.Snapshot{}
	for i := 0; i < 125; i++ {
		snap.Servers = append(snap.Servers, &epl.ServerInfo{ID: cluster.MachineID(i),
			CPUPerc: float64(25 * (i % 5)), MemPerc: float64(25 * (i / 5 % 5)), NetPerc: float64(25 * (i / 25))})
	}
	snap.Index()
	checked := 0
	for _, src := range srcs {
		pol, err := epl.Parse(src)
		if err != nil {
			continue // a corpus file that tests a parse error, or a literal that is no policy
		}
		fired := firedRules{}
		in := epl.EvaluateObserved(pol, snap, true, false, fired)
		for _, rule := range pol.Rules {
			chain := rule.ProvClassChain()
			if len(chain) == 0 {
				continue
			}
			if !fired[rule] {
				t.Errorf("rule %q fires nowhere on the grid; this check cannot cover it", rule)
				continue
			}
			var got []string
			for _, pi := range in.ProvClass {
				if pi.Rule == rule {
					got = append(got, pi.Classes...)
				}
			}
			if !slices.Equal(got, chain) {
				t.Errorf("rule %q: provclass intents give %v, ProvClassChain %v", rule, got, chain)
			}
			checked++
		}
	}
	// The exact count, as in TestShippedPoliciesModelClean: the pair, six
	// corpus rules and three in internal/experiments.
	if checked != 10 {
		t.Fatalf("checked %d provclass rules, want 10; a glob or the literal pattern has drifted", checked)
	}
}
