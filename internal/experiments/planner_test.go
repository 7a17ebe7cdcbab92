package experiments

import (
	"slices"
	"strings"
	"testing"
)

// The plan_* scenarios were built as races against a per-intent greedy
// planner that has since been deleted. Its last recorded numbers at seed 1
// stay as absolute lines in the rows' claims (experiments.go), so the
// oscillation and affinity claims are still checked without keeping the
// loser's code: 36.1 s / 3,699 migrations on plan_pagerank, 79.0 ms mean and
// a 20 s settle on plan_halo.

func TestPlanPagerankConvergesWithoutBounce(t *testing.T) { claimHolds(t, "plan_pagerank") }
func TestPlanHaloAffinityPlacement(t *testing.T)          { claimHolds(t, "plan_halo") }

// At seed 7 plan_pagerank's balance rule keeps moving 1.5 GB workers whose
// serialize work it reads as load, and some of those moves wait behind the
// others until they run more than two periods past their own cost: the
// sweep fails the claim on them. Moves that stick flip this test.
func TestPlanPagerankSeed7MovesOverrun(t *testing.T) {
	r, err := Run("plan_pagerank", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inv := invariantClause(t, r)
	if inv.Holds() || !slices.ContainsFunc(inv.Detail, func(l string) bool { return strings.Contains(l, " past its ") }) {
		t.Fatalf("invariant clause %s, want it failing on a migration past its own move", inv)
	}
}
