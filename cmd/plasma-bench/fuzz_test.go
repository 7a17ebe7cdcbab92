package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBenchFile holds the -compare gate to two properties on any bytes:
// parseBenchFile never panics, and a baseline it accepts compares clean
// against itself — otherwise the gate fails a run that reproduced the
// baseline exactly. The seeds are the checked-in BENCH_*.json files, each
// of which must parse, and the three shapes parseBenchFile refuses.
func FuzzBenchFile(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no checked-in baselines to seed from (err %v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := parseBenchFile(data); err != nil {
			f.Fatalf("checked-in baseline refused: %s: %v", path, err)
		}
		f.Add(data)
	}
	for _, tc := range untrustedBaselines() {
		data, err := json.Marshal(tc.bf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bf, err := parseBenchFile(data)
		if err != nil {
			return
		}
		if regs, _ := compareBench(bf, bf); len(regs) != 0 {
			t.Fatalf("accepted baseline fails against itself: %v", regs)
		}
	})
}
