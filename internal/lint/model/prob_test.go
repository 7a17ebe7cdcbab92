package model

import (
	"math"
	"testing"

	"plasma/internal/lint"
)

// TestOverloadProbabilityExact checks the DTMC bounded iteration against
// a hand-computed value. With drift probabilities (¼, ½, ¼) from load 13
// on a fixed 4-server fleet (the policy only reacts above 95%), overload
// (≥90% ⟺ load ≥ 15) within 3 periods is reached by the upward paths:
//
//	++·        ¼·¼        = 1/16
//	+0+, 0++   2·(¼·½·¼)  = 2/32
//
// for a total of 1/8.
func TestOverloadProbabilityExact(t *testing.T) {
	pol := mustCheck(t, `
# lint:envelope init=4:13
server.cpu.perc > 95 => balance({Worker}, cpu);
`)
	env := DefaultEnvelope()
	_, diags := parseAnnotations(pol.Source, &env)
	if len(diags) != 0 {
		t.Fatal(diags)
	}
	sys := Compile(pol, env)
	p := sys.eventProb(EventOverload, 3)
	if got := p[3][0]; math.Abs(got-0.125) > 1e-12 {
		t.Errorf("P(overload, horizon=3) = %v, want 0.125", got)
	}
	// Monotone in the horizon, and zero at horizon 1 (needs two +1 steps).
	if p[1][0] != 0 {
		t.Errorf("P(horizon=1) = %v, want 0", p[1][0])
	}
	if !(p[2][0] < p[3][0]) {
		t.Errorf("probability not monotone: %v then %v", p[2][0], p[3][0])
	}
}

// TestScaleEventProbability checks the transition-event flavor: from the
// initial state at 50% on the hysteresis policy, a scale-out within one
// period needs drift to push utilization over 80, which cannot happen —
// while from load 12 (75%) one +1 drift (probability ¼) crosses it.
func TestScaleEventProbability(t *testing.T) {
	pol := mustCheck(t, `
server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);
`)
	sys := Compile(pol, DefaultEnvelope())
	p := sys.eventProb(EventScaleOut, 1)
	if p[1][0] != 0 {
		t.Errorf("P(scaleout within 1) from init = %v, want 0", p[1][0])
	}
	// Find the reachable state (4 servers, load 12).
	id := -1
	for i, s := range sys.states {
		if s.Servers == 4 && s.Load == 12 {
			id = i
			break
		}
	}
	if id < 0 {
		t.Fatal("state (4, 12) not reachable")
	}
	if got := p[1][id]; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(scaleout within 1) from load 12 = %v, want 0.25", got)
	}
}

// TestAssertWitnessReachesEvent asserts a violated bound's witness path
// ends at the event it bounds.
func TestAssertWitnessReachesEvent(t *testing.T) {
	pol := mustCheck(t, `
# lint:envelope init=4:13
# lint:assert P(overload, horizon=3) < 0.05
server.cpu.perc > 95 => balance({Worker}, cpu);
`)
	var f *Finding
	findings := Check(pol)
	for i := range findings {
		if findings[i].Code == lint.CodeProbBound {
			f = &findings[i]
		}
	}
	if f == nil {
		t.Fatalf("no EPL210: %+v", findings)
	}
	if len(f.Path) == 0 || len(f.Path) > 3 {
		t.Fatalf("witness has %d steps, want 1..3", len(f.Path))
	}
	last := f.Path[len(f.Path)-1]
	u := 100 * float64(last.Load) / (4 * float64(last.After))
	if u < 90 {
		t.Errorf("witness ends below the overload line: %+v", last)
	}
}

// TestAssertHoldsProducesNoFinding is the negative control for EPL210.
func TestAssertHoldsProducesNoFinding(t *testing.T) {
	pol := mustCheck(t, `
# lint:assert P(overload, horizon=3) < 0.01
server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);
`)
	for _, f := range Check(pol) {
		t.Errorf("unexpected finding %s: %s", f.Code, f.Message)
	}
}
