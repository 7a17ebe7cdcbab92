package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plasma/internal/trace"
)

func TestRunExitCodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	for _, tc := range []struct {
		name       string
		args       []string
		exit       int
		wantStderr string
		traced     bool
	}{
		{"Untraced", []string{"fig5"}, 0, "", false},
		{"Traced", []string{"-trace", out, "fig5"}, 0, "", true},
		{"TracedRingOverflow", []string{"-trace", out, "-trace-cap", "8", "fig5"}, 1, "raise -trace-cap", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit = %d, want %d (stderr %q)", got, tc.exit, stderr.String())
			}
			if !strings.Contains(stdout.String(), "== fig5:") {
				t.Fatalf("stdout lacks the fig5 table: %q", stdout.String())
			}
			if got := stderr.String(); (got == "") != (tc.wantStderr == "") || !strings.Contains(got, tc.wantStderr) {
				t.Fatalf("stderr = %q, want %q in it (and nothing when empty)", got, tc.wantStderr)
			}
			if !tc.traced {
				return
			}
			fh, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer fh.Close()
			recs, err := trace.ReadJSONL(fh)
			if err != nil || len(recs) == 0 {
				t.Fatalf("trace file: %d records, err %v", len(recs), err)
			}
			if tc.exit != 0 && len(recs) != 8 {
				t.Fatalf("overflowed ring wrote %d records, want its 8-record tail", len(recs))
			}
		})
	}
}
