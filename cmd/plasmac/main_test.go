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

var goldenDir = filepath.Join(corpusDir, "golden", "plasmac")

func runPlasmac(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
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

// TestGoldenCompile locks the compiled JSON and exit status for a
// representative slice of the corpus.
func TestGoldenCompile(t *testing.T) {
	for _, name := range []string{
		"clean_pagerank", "clean_halo", "shadow_true", "flap_zero_band", "dead_var", "unsat_interval",
	} {
		t.Run(name, func(t *testing.T) {
			stdout, _, code := runPlasmac(t, filepath.Join(corpusDir, name+".epl"))
			checkGolden(t, name, stdout+fmt.Sprintf("exit: %d\n", code))
		})
	}
}

// TestErrorSeverityFailsWithoutWerror asserts a policy the compiler rejects
// exits 1 with the error on stderr and nothing on stdout.
func TestErrorSeverityFailsWithoutWerror(t *testing.T) {
	stdout, stderr, code := runPlasmac(t, "-e", "Partition(p).cpu.perc > 30 => balance({p}, cpu);")
	if code != 1 || stdout != "" {
		t.Fatalf("exit = %d, stdout %q; want 1 and nothing compiled", code, stdout)
	}
	if !strings.Contains(stderr, "balance takes actor types") {
		t.Fatalf("stderr missing the compiler's error: %q", stderr)
	}
}

// TestTextModeWritesDiagnosticsToStderr asserts the conflict warnings go to
// stderr, leaving stdout the compiled JSON alone.
func TestTextModeWritesDiagnosticsToStderr(t *testing.T) {
	stdout, stderr, code := runPlasmac(t, filepath.Join(corpusDir, "shadow_true.epl"))
	if code != 0 {
		t.Fatalf("warnings must not fail the compile, exit = %d", code)
	}
	if !strings.Contains(stderr, "warning[EPL102]") {
		t.Fatalf("stderr missing EPL102: %q", stderr)
	}
	if strings.Contains(stdout, "EPL102") {
		t.Fatal("the compiled JSON must not carry diagnostics")
	}
}

func TestInlinePolicy(t *testing.T) {
	stdout, _, code := runPlasmac(t, "-e", "server.cpu.perc > 80 => balance({W}, cpu);")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, `"class": "resource"`) {
		t.Fatalf("compiled output missing rule class: %s", stdout)
	}
}

// TestSchemaWithParentFailsTheCompile: actor types match only themselves
// (§3.2), so a schema declaring a subtype's "parent" is a bad schema — exit
// 1, naming the key — and nothing is compiled.
func TestSchemaWithParentFailsTheCompile(t *testing.T) {
	schema := filepath.Join(t.TempDir(), "app.json")
	if err := os.WriteFile(schema, []byte(`{"actors":[{"name":"W","parent":"Base"},{"name":"Base"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runPlasmac(t, "-schema", schema, "-e", "server.cpu.perc > 80 => balance({W}, cpu);")
	if code != 1 || stdout != "" {
		t.Fatalf("exit = %d, stdout %q; want 1 and nothing compiled", code, stdout)
	}
	if !strings.Contains(stderr, `unknown field "parent"`) {
		t.Fatalf("stderr does not name the key: %q", stderr)
	}
}
