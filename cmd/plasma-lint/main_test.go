package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const corpusDir = "../../internal/lint/testdata"

var goldenDir = filepath.Join(corpusDir, "golden", "plasma-lint")

// runGolden executes the CLI in-process and returns the normalized
// transcript: stdout, then an exit-status trailer. Corpus paths are
// rewritten relative to testdata/ so goldens do not depend on the
// package's location.
func runGolden(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
	out := strings.ReplaceAll(stdout.String(), corpusDir+"/", "testdata/")
	return out + fmt.Sprintf("exit: %d\n", code)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenCorpus locks the CLI's text output and exit status for every
// corpus policy.
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.epl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".epl")
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, runGolden(t, f))
		})
	}
}

// TestGoldenModel locks the model checker's CLI output for the seeded
// model-checker corpus: the plain -model diagnostic lines and the full
// -explain counterexample rendering.
func TestGoldenModel(t *testing.T) {
	cases := []string{
		"osc_cross_rule", "dead_overload", "unreachable_scale",
		"deadend_warmpool", "assert_viol", "bad_assert", "clean_provclass",
	}
	for _, name := range cases {
		path := filepath.Join(corpusDir, name+".epl")
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name+".model", runGolden(t, "-model", path))
		})
		t.Run(name+"_explain", func(t *testing.T) {
			checkGolden(t, name+".explain", runGolden(t, "-explain", path))
		})
	}
}

// TestGoldenModelJSON locks the machine-readable counterexample shape —
// downstream tools replay these paths through the simulator.
func TestGoldenModelJSON(t *testing.T) {
	got := runGolden(t, "-model", "-json", filepath.Join(corpusDir, "osc_cross_rule.epl"))
	checkGolden(t, "osc_cross_rule.model.json", got)
}

// TestGoldenJSON locks the machine-readable output shape.
func TestGoldenJSON(t *testing.T) {
	got := runGolden(t, "-json", filepath.Join(corpusDir, "shadow_true.epl"))
	checkGolden(t, "shadow_true.json", got)
	clean := runGolden(t, "-json", filepath.Join(corpusDir, "clean_pagerank.epl"))
	checkGolden(t, "clean_pagerank.json", clean)
}

func TestWerrorPromotesWarnings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join(corpusDir, "flap_zero_band.epl")
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("warnings alone should exit 0, got %d", code)
	}
	stdout.Reset()
	if code := run([]string{"-Werror", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("-Werror with warnings should exit 1")
	}
}

func TestInfoNeverFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join(corpusDir, "dead_var.epl")
	if code := run([]string{"-Werror", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("info-severity findings should not fail -Werror, got %d\n%s", code, stdout.String())
	}
}

// TestRejectsNonPolicyTargets: plasma-lint lints policies only, so a
// directory, a Go file or no target at all is a usage error that lints
// nothing — not even the .epl beside it.
func TestRejectsNonPolicyTargets(t *testing.T) {
	policy := filepath.Join(corpusDir, "shadow_true.epl")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"Directory", []string{policy, corpusDir}},
		{"GoFile", []string{"main.go"}},
		{"NoTargets", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty: %s", stdout.String())
			}
			if !strings.Contains(stderr.String(), "usage: plasma-lint") {
				t.Fatalf("stderr has no usage line: %q", stderr.String())
			}
		})
	}
}

// TestSchemaWithParentIsAnIOFailure: actor types match only themselves
// (§3.2), so a schema declaring a subtype's "parent" is a bad schema — exit
// 2, naming the key — and no policy is linted against it.
func TestSchemaWithParentIsAnIOFailure(t *testing.T) {
	schema := filepath.Join(t.TempDir(), "app.json")
	if err := os.WriteFile(schema, []byte(`{"actors":[{"name":"Worker","parent":"Base"},{"name":"Base"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-schema", schema, filepath.Join(corpusDir, "shadow_true.epl")}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), `unknown field "parent"`) {
		t.Fatalf("stdout %q, stderr %q; want nothing linted and the key named", stdout.String(), stderr.String())
	}
}

// TestUncompilablePolicyIsEPL000: a target that cannot be read, parsed or
// checked is one error-severity EPL000 diagnostic carrying the OS's, the
// parser's or the compiler's message — exit 1 without -Werror — and the
// target beside it is still linted.
func TestUncompilablePolicyIsEPL000(t *testing.T) {
	other := filepath.Join(corpusDir, "shadow_true.epl")
	var alone, stderr bytes.Buffer
	if code := run([]string{other}, &alone, &stderr); code != 0 {
		t.Fatalf("%s alone: exit %d, want 0", other, code)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name, src, want string
	}{
		{"Parse", "server.cpu.perc > => balance({Worker}, cpu);", "expected number, found '=>'"},
		{"Check", "Partition(p).cpu.perc > 30 => balance({p}, cpu);", "balance takes actor types"},
		{"Missing", "", "no such file or directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".epl")
			if tc.src != "" {
				if err := os.WriteFile(path, []byte(tc.src+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{path, other}, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1\n%s", code, stdout.String())
			}
			if stderr.Len() != 0 {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			var epl000 []string
			var rest strings.Builder
			for _, line := range strings.SplitAfter(stdout.String(), "\n") {
				if strings.Contains(line, "EPL000") {
					epl000 = append(epl000, line)
				} else {
					rest.WriteString(line)
				}
			}
			prefix := path + ":1:1: error[EPL000]: "
			if len(epl000) != 1 || !strings.HasPrefix(epl000[0], prefix) || !strings.Contains(epl000[0], tc.want) {
				t.Fatalf("want one EPL000 line for %s naming %q, got\n%s", path, tc.want, stdout.String())
			}
			if rest.String() != alone.String() {
				t.Fatalf("besides the EPL000 line, got\n%s\nwant %s's own findings\n%s", rest.String(), other, alone.String())
			}
		})
	}
}
