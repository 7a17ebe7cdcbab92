package experiments

import (
	"math"
	"testing"

	"plasma/internal/sim"
)

// The acceptance bar for the streaming family: the stream_skew row's claim
// (the shipped streamagg policy matches or beats the Elasticutor-style
// executor-level repartitioner on recovery after the skew shift), and the
// seed-1 values pinned (they are deterministic at fixed seed and also
// guarded by the BENCH baseline).
func TestStreamSkewPlasmaBeatsElasticutor(t *testing.T) {
	r := claimHolds(t, "stream_skew")
	p, e := r.Summary["recovery_s_plasma"], r.Summary["recovery_s_elasticutor"]
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
}

// The per-window p99 must have the race's shape for both of stream_skew's
// managers: a steady-state plateau under the SLO before the shift, and (for
// the baseline, which visibly degrades) a post-shift excursion above it.
// Windows whose probes never returned are skipped.
func TestStreamSkewSeriesShape(t *testing.T) {
	for _, mode := range []string{"plasma", "elasticutor"} {
		finite, peak := 0, 0.0
		for w, p99 := range streamTrial(Config{Seed: 1}, 1, streamBase(streamQuick, mode)).p99 {
			if math.IsInf(p99, 0) {
				continue
			}
			finite++
			// Steady state: every window ending in (10s, 18s] — past warm-up,
			// before the 18.5s shift — under the 50 ms SLO.
			end := ((sim.Time(w) + 1) * sim.Time(streamWindow)).Seconds()
			if end > 10 && end <= 18 && p99 > 50 {
				t.Errorf("%s steady-state window at t=%.1f has p99 %.1f ms > SLO", mode, end, p99)
			}
			if end > 18.5 {
				peak = max(peak, p99)
			}
		}
		if finite == 0 {
			t.Fatalf("no p99 window returned for %s", mode)
		}
		// The baseline's post-shift excursion is what recovery is measured
		// against; it must actually exist.
		if mode == "elasticutor" && peak < 50 {
			t.Fatalf("elasticutor post-shift peak %.1f ms never exceeded the SLO; the shift is too weak", peak)
		}
	}
}

// The rest of the family's shape tests are their rows' claims.
func TestStreamDriftAllShiftsRecovered(t *testing.T)      { claimHolds(t, "stream_drift") }
func TestStreamSpikeScaleOutWins(t *testing.T)            { claimHolds(t, "stream_spike") }
func TestStreamChaosRecoversThroughGEMCrash(t *testing.T) { claimHolds(t, "stream_chaos") }

// Fixed seed, fixed scenario: the rendered stream results must be
// byte-identical across repeats (TestAllQuickIDsDeterministic repeats
// every id, streams included, at seeds 1 and 2 with the trace on).
func TestStreamDeterministicSameSeed(t *testing.T) {
	for _, id := range []string{"stream_skew", "stream_chaos"} {
		a, _ := Run(id, Config{Seed: 3})
		b, _ := Run(id, Config{Seed: 3})
		if a.Render() != b.Render() {
			t.Fatalf("same-seed %s renders differ:\n--- a ---\n%s\n--- b ---\n%s", id, a.Render(), b.Render())
		}
	}
}
