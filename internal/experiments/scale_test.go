package experiments

import (
	"testing"
)

// Quick-mode scale sweep: every cell must actually balance load into the
// spare servers, with multi-seed trials running on the parallel runner (the
// scale row's claim).
func TestScaleQuickBalances(t *testing.T) { claimHolds(t, "scale") }

// The parallel multi-seed runner must not perturb results: running the same
// config twice renders identically (the trials' goroutine interleaving can
// differ; the per-seed kernels and the index-ordered aggregation cannot).
func TestScaleParallelRunsDeterministic(t *testing.T) {
	a, _ := Run("scale", Config{Seed: 5})
	b, _ := Run("scale", Config{Seed: 5})
	if a.Render() != b.Render() {
		t.Fatalf("same-seed scale runs differ:\n--- first ---\n%s\n--- second ---\n%s", a.Render(), b.Render())
	}
}

// 100k-actor smoke test for the scale family: one seeded fleet through the
// full EMR loop. Skipped under -short.
func TestScale100kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-actor smoke test skipped in -short mode")
	}
	tr := scaleTrial(Config{}, 1, 100_000, 2)
	if tr.stats.ExecutedMigrations == 0 {
		t.Fatal("100k-actor fleet executed no migrations")
	}
	if tr.spareFilled == 0 {
		t.Fatal("100k-actor fleet never filled a spare server")
	}
}
