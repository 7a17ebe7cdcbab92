package experiments

import (
	"testing"
)

// Quick-mode scale sweep: every cell must actually balance load into the
// spare servers, averaged over its seeds (the scale row's claim).
func TestScaleQuickBalances(t *testing.T) { claimHolds(t, "scale") }

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
