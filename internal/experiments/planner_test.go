package experiments

import "testing"

// The plan_* scenarios were built as races against a per-intent greedy
// planner that has since been deleted. Its last recorded numbers at seed 1
// stay as absolute lines, so the oscillation and affinity claims are still
// checked without keeping the loser's code: 36.1 s / 3,699 migrations on
// plan_pagerank, 79.0 ms mean and a 20 s settle on plan_halo.

func TestPlanPagerankConvergesWithoutBounce(t *testing.T) {
	r := PlanPagerank(Config{Seed: 1})
	conv, migs := r.Summary["converged_ms"], r.Summary["migrations"]
	if conv == 0 {
		t.Fatal("degenerate convergence time 0")
	}
	if conv >= 36100 {
		t.Errorf("converged in %.0f ms; the greedy loop's cross-axis bounce took 36,100 ms", conv)
	}
	// The mechanism, not just the outcome: axis-blind cpu and mem rules
	// undo each other's moves, every bounce a multi-second state transfer.
	if migs >= 3699 {
		t.Errorf("%.0f migrations; the greedy loop's ping-pong made 3,699", migs)
	}
}

func TestPlanHaloAffinityPlacement(t *testing.T) {
	r := PlanHalo(Config{Seed: 1})
	mean, final := r.Summary["mean_ms"], r.Summary["final_ms"]
	if mean == 0 || final == 0 {
		t.Fatalf("degenerate latencies: mean=%.1f final=%.1f", mean, final)
	}
	if mean >= 79.0 {
		t.Errorf("mean latency %.1f ms; load-only targeting measured 79.0 ms", mean)
	}
	// Routers land beside their traffic in the first spreading round
	// instead of drifting there.
	if settle := r.Summary["settle_s"]; settle > 20 {
		t.Errorf("settled at %.0f s; load-only targeting settled at 20 s", settle)
	}
}
