package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plasma/internal/experiments"
	"plasma/internal/trace"
)

// A run exits 0 with fig5's report; a bad argument exits before any id runs,
// so its stdout is empty.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.jsonl")
	for _, tc := range []struct {
		name       string
		args       []string
		exit       int
		wantStderr string
	}{
		{"Untraced", []string{"fig5"}, 0, ""},
		{"Traced", []string{"-trace", out, "fig5"}, 0, ""},
		{"UnknownID", []string{"fig5", "nosuch"}, 2, `unknown id "nosuch"`},
		{"UncreatableTrace", []string{"-trace", filepath.Join(dir, "no", "such", "t.jsonl"), "fig5"}, 1, "no such file or directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit = %d, want %d (stderr %q)", got, tc.exit, stderr.String())
			}
			if got := stderr.String(); (got == "") != (tc.wantStderr == "") || !strings.Contains(got, tc.wantStderr) {
				t.Fatalf("stderr = %q, want %q in it (and nothing when empty)", got, tc.wantStderr)
			}
			if tc.exit != 0 {
				if stdout.Len() != 0 {
					t.Fatalf("exit %d, yet an id ran: stdout %q", tc.exit, stdout.String())
				}
				return
			}
			if !strings.Contains(stdout.String(), "== fig5:") || !strings.Contains(stdout.String(), "\nclaim: holds\n") {
				t.Fatalf("stdout lacks the fig5 table or its claim: %q", stdout.String())
			}
			if tc.name == "Traced" {
				sameAsRingExport(t, out)
			}
		})
	}
}

// sameAsRingExport holds the streamed file to the path every other test
// reads: fig5 at seed 1 into a trace.Ring, exported with trace.WriteJSONL.
func sameAsRingExport(t *testing.T, path string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(1 << 20)
	if _, err := experiments.Run("fig5", experiments.Config{Seed: 1, Trace: trace.New(ring)}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteJSONL(&want, ring.Records()); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != 0 || want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed trace is %d bytes, the ring export %d (%d dropped); they differ", len(got), want.Len(), ring.Dropped())
	}
}
