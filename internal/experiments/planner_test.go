package experiments

import "testing"

// The plan_* scenarios were built as races against a per-intent greedy
// planner that has since been deleted. Its last recorded numbers at seed 1
// stay as absolute lines in the rows' claims (experiments.go), so the
// oscillation and affinity claims are still checked without keeping the
// loser's code: 36.1 s / 3,699 migrations on plan_pagerank, 79.0 ms mean and
// a 20 s settle on plan_halo.

func TestPlanPagerankConvergesWithoutBounce(t *testing.T) { claimHolds(t, "plan_pagerank") }
func TestPlanHaloAffinityPlacement(t *testing.T)          { claimHolds(t, "plan_halo") }
