package experiments

import (
	"testing"
)

// The acceptance bar for the streaming family: at the pinned seed, the
// shipped streamagg policy must match or beat the Elasticutor-style
// executor-level repartitioner on recovery time after the skew shift. The
// exact values are pinned (they are deterministic at fixed seed and also
// guarded by the BENCH baseline); the inequalities are the claim.
func TestStreamSkewPlasmaBeatsElasticutor(t *testing.T) {
	r := StreamSkew(Config{Seed: 1})

	if r.Summary["recovered_plasma"] != 1 {
		t.Fatal("plasma never re-entered the SLO after the shift")
	}
	if r.Summary["recovered_elasticutor"] != 1 {
		t.Fatal("elasticutor never re-entered the SLO after the shift; the race is vacuous")
	}
	p, e := r.Summary["recovery_s_plasma"], r.Summary["recovery_s_elasticutor"]
	if p > e {
		t.Fatalf("plasma recovery %.1fs slower than elasticutor %.1fs; the policy lost the race", p, e)
	}
	// Pinned seed-1 values (see EXPERIMENTS.md): plasma is back under the
	// SLO in the second post-shift window, the baseline takes four violating
	// windows to re-spread the hot keys. (0.5 s until the planning round
	// began projecting a planned reservation's load off its source — the
	// hot server then sheds nothing else that period; over seeds 1–6 mean
	// recovery went 2.7 s → 2.3 s, seed 1 is the one seed that lost.)
	if p != 1.5 {
		t.Errorf("plasma recovery = %.1fs at seed 1, pinned 1.5s", p)
	}
	if e != 4.5 {
		t.Errorf("elasticutor recovery = %.1fs at seed 1, pinned 4.5s", e)
	}
	if vp, ve := r.Summary["slo_viol_s_plasma"], r.Summary["slo_viol_s_elasticutor"]; vp > ve {
		t.Errorf("plasma violated the SLO longer than the baseline (%.1fs > %.1fs)", vp, ve)
	}
	for _, mode := range []string{"plasma", "elasticutor"} {
		if r.Summary["invariant_violations_"+mode] != 0 {
			t.Errorf("%s run ended with invariant violations", mode)
		}
		if r.Summary["moves_"+mode] == 0 {
			t.Errorf("%s never moved any state; the shift was not managed", mode)
		}
	}
}

// The p99 series must have the race's shape for both managers: a
// steady-state plateau under the SLO before the shift, and (for the
// baseline, which visibly degrades) a post-shift excursion above it.
func TestStreamSkewSeriesShape(t *testing.T) {
	r := StreamSkew(Config{Seed: 1})
	for _, mode := range []string{"plasma", "elasticutor"} {
		s := r.Series["p99_"+mode]
		if s == nil || s.Len() == 0 {
			t.Fatalf("missing p99 series for %s", mode)
		}
		// Steady state: every window in (10s, 18s] — past warm-up, before
		// the 18.5s shift — under the 50 ms SLO.
		for i := range s.X {
			if s.X[i] > 10 && s.X[i] <= 18 && s.Y[i] > 50 {
				t.Errorf("%s steady-state window at t=%.1f has p99 %.1f ms > SLO", mode, s.X[i], s.Y[i])
			}
		}
	}
	// The baseline's post-shift excursion is what recovery is measured
	// against; it must actually exist.
	s := r.Series["p99_elasticutor"]
	peak := 0.0
	for i := range s.X {
		if s.X[i] > 18.5 && s.Y[i] > peak {
			peak = s.Y[i]
		}
	}
	if peak < 50 {
		t.Fatalf("elasticutor post-shift peak %.1f ms never exceeded the SLO; the shift is too weak", peak)
	}
}

// Drifting hot set: every shift must be recovered from, and the repeated
// races must not leave the fleet worse than the single-shift case in kind
// (all recoveries finite).
func TestStreamDriftAllShiftsRecovered(t *testing.T) {
	r := StreamDrift(Config{Seed: 1})
	if r.Summary["recovered_plasma"] != 3 {
		t.Fatalf("plasma recovered %v of 3 shifts", r.Summary["recovered_plasma"])
	}
	if r.Summary["recovered_elasticutor"] != 3 {
		t.Fatalf("elasticutor recovered %v of 3 shifts", r.Summary["recovered_elasticutor"])
	}
	if p, e := r.Summary["mean_recovery_s_plasma"], r.Summary["mean_recovery_s_elasticutor"]; p > e {
		t.Errorf("plasma mean recovery %.1fs worse than baseline %.1fs under drift", p, e)
	}
	for _, mode := range []string{"plasma", "elasticutor"} {
		if r.Summary["invariant_violations_"+mode] != 0 {
			t.Errorf("%s run ended with invariant violations", mode)
		}
	}
}

// The spike scenario's claim is asymmetric capability: only the manager
// that can add machines recovers before the spike ends.
func TestStreamSpikeScaleOutWins(t *testing.T) {
	r := StreamSpike(Config{Seed: 1})
	if r.Summary["scale_outs_plasma"] == 0 {
		t.Fatal("plasma never scaled out during the spike")
	}
	if r.Summary["scale_outs_elasticutor"] != 0 {
		t.Fatal("the fixed-fleet baseline somehow scaled out")
	}
	p, e := r.Summary["recovery_s_plasma"], r.Summary["recovery_s_elasticutor"]
	if p >= e {
		t.Fatalf("plasma recovery %.1fs not ahead of the fixed fleet's %.1fs", p, e)
	}
	// The spike spans 16.5s..34.5s: recovery under 18s means plasma
	// re-entered the SLO while the spike was still on — the capability the
	// scenario exists to show.
	if p >= 18 {
		t.Errorf("plasma recovery %.1fs is after the spike ended; scale-out arrived too late", p)
	}
	for _, mode := range []string{"plasma", "elasticutor"} {
		if r.Summary["invariant_violations_"+mode] != 0 {
			t.Errorf("%s run ended with invariant violations", mode)
		}
	}
}

// The chaos-composed stream: the GEM crash must really happen, and the
// surviving control plane must still win the recovery race.
func TestStreamChaosRecoversThroughGEMCrash(t *testing.T) {
	r := StreamChaos(Config{Seed: 1})
	if r.Summary["ctl_fails"] == 0 {
		t.Fatal("GEM crash never applied; the composition is vacuous")
	}
	if r.Summary["recovered"] != 1 {
		t.Fatal("no recovery with half the control plane down")
	}
	if r.Summary["invariant_violations"] != 0 {
		t.Error("invariant violations after the composed run")
	}
}

// Fixed seed, fixed scenario: the rendered stream results must be
// byte-identical across repeats (TestAllQuickIDsDeterministic repeats
// every registered id, streams included, at seed 1 with the trace on).
func TestStreamDeterministicSameSeed(t *testing.T) {
	for id, fn := range map[string]func(Config) *Result{
		"stream_skew": StreamSkew, "stream_chaos": StreamChaos,
	} {
		a := fn(Config{Seed: 3}).Render()
		b := fn(Config{Seed: 3}).Render()
		if a != b {
			t.Fatalf("same-seed %s renders differ:\n--- a ---\n%s\n--- b ---\n%s", id, a, b)
		}
	}
}
