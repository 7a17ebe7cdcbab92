package model

import (
	"strings"
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/lint"
)

func mustCheck(t *testing.T, src string) *epl.Policy {
	t.Helper()
	pol, err := epl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := epl.Check(pol, nil); err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestEnvelopeAnnotationParsing(t *testing.T) {
	env := DefaultEnvelope()
	src := `
# lint:envelope servers=2..8 init=2:3 load=0..12 perserver=6 overload=95
# lint:envelope classes=warm:2,vm drift=2 driftprobs=0.1,0.2,0.4,0.2,0.1
# lint:assert P(overload, horizon=5) < 0.25
# lint:assert P(scalein) <= 0
server.cpu.perc > 80 => balance({W}, cpu);
`
	asserts, diags := parseAnnotations(src, &env)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if err := env.validate(); err != nil {
		t.Fatal(err)
	}
	if env.MinServers != 2 || env.MaxServers != 8 || env.InitServers != 2 {
		t.Errorf("servers = %d..%d init %d", env.MinServers, env.MaxServers, env.InitServers)
	}
	if env.InitLoad != 3 || env.MaxLoad != 12 || env.PerServer != 6 {
		t.Errorf("load init %d max %d perserver %d", env.InitLoad, env.MaxLoad, env.PerServer)
	}
	if env.OverloadPerc != 95 || env.Drift != 2 || len(env.DriftProbs) != 5 {
		t.Errorf("overload %g drift %d probs %v", env.OverloadPerc, env.Drift, env.DriftProbs)
	}
	if len(env.Classes) != 2 || env.Classes[0] != (Class{"warm", 2}) || env.Classes[1] != (Class{"vm", -1}) {
		t.Errorf("classes = %+v", env.Classes)
	}
	if len(asserts) != 2 {
		t.Fatalf("asserts = %+v", asserts)
	}
	if a := asserts[0]; a.Event != EventOverload || a.Horizon != 5 || !a.Strict || a.Bound != 0.25 {
		t.Errorf("assert 0 = %+v", a)
	}
	if a := asserts[1]; a.Event != EventScaleIn || a.Horizon != defaultHorizon || a.Strict || a.Bound != 0 {
		t.Errorf("assert 1 = %+v", a)
	}
}

func TestMalformedAnnotations(t *testing.T) {
	cases := []string{
		"# lint:assert P(meltdown) < 0.5\ntrue => pin(W(w));",
		"# lint:assert P(overload < 0.5\ntrue => pin(W(w));",
		"# lint:assert P(overload) ~ 0.5\ntrue => pin(W(w));",
		"# lint:assert P(overload, horizon=zero) < 0.5\ntrue => pin(W(w));",
		"# lint:envelope servers=8\ntrue => pin(W(w));",
		"# lint:envelope bogus=1\ntrue => pin(W(w));",
		"# lint:envelope driftprobs=0.5,0.5,0.5\ntrue => pin(W(w));",
		"# lint:envelope classes=quantum\ntrue => pin(W(w));",
		"# lint:envelope drift=-1\ntrue => pin(W(w));",
		"# lint:envelope drift=128\ntrue => pin(W(w));",
	}
	for _, src := range cases {
		pol := mustCheck(t, src)
		findings := Check(pol)
		bad := 0
		for _, f := range findings {
			if f.Code == lint.CodeBadAnnotation {
				bad++
			}
		}
		if bad == 0 {
			t.Errorf("no EPL211 for %q (got %+v)", strings.SplitN(src, "\n", 2)[0], findings)
		}
	}
}

// TestOscillationCounterexample pins the tick-by-tick counterexample for
// the seeded oscillating policy: hysteresis band of five points is
// narrower than one server's utilization jump (81.25% on 4 servers →
// 65% on 5), so the fleet provisions and drains forever at load 13.
func TestOscillationCounterexample(t *testing.T) {
	pol := mustCheck(t, `
server.cpu.perc > 80 or server.cpu.perc < 75 =>
    balance({Worker}, cpu);
`)
	findings := Check(pol)
	if len(findings) != 1 || findings[0].Code != lint.CodeOscillation {
		t.Fatalf("findings = %+v, want one EPL200", findings)
	}
	f := findings[0]
	if f.CycleFrom < 0 {
		t.Fatal("no cycle marker")
	}
	cycle := f.Path[f.CycleFrom:]
	if len(cycle) != 2 {
		t.Fatalf("cycle length %d, want the 2-period out/in loop:\n%s", len(cycle), FormatPath(f))
	}
	var sawOut, sawIn bool
	for _, st := range cycle {
		if st.Drift != 0 {
			t.Errorf("cycle step drifts by %d; oscillation must hold load constant", st.Drift)
		}
		if st.Load != 13 {
			t.Errorf("cycle at load %d, want 13", st.Load)
		}
		if strings.Contains(st.Action, "scale-out") {
			sawOut = true
			if st.Servers != 4 || st.After != 5 || st.Util != 81.25 {
				t.Errorf("scale-out step = %+v, want 4→5 servers at 81.25%%", st)
			}
		}
		if strings.Contains(st.Action, "scale-in") {
			sawIn = true
			if st.Servers != 5 || st.After != 4 || st.Util != 65 {
				t.Errorf("scale-in step = %+v, want 5→4 servers at 65%%", st)
			}
		}
	}
	if !sawOut || !sawIn {
		t.Fatalf("cycle misses a direction (out %v, in %v):\n%s", sawOut, sawIn, FormatPath(f))
	}
	// The prefix must be a genuine path from the initial state.
	if f.Path[0].Servers != 4 || f.Path[0].Load-f.Path[0].Drift != 8 {
		t.Errorf("path does not start at the initial state: %+v", f.Path[0])
	}
	for i := 1; i < len(f.Path); i++ {
		if f.Path[i].Load-f.Path[i].Drift != f.Path[i-1].Load {
			t.Errorf("step %d load %d (Δ%+d) does not follow load %d",
				i, f.Path[i].Load, f.Path[i].Drift, f.Path[i-1].Load)
		}
		if f.Path[i].Servers != f.Path[i-1].After {
			t.Errorf("step %d starts at %d servers, previous ended at %d",
				i, f.Path[i].Servers, f.Path[i-1].After)
		}
	}
	// The rendered explanation names the cycle.
	text := FormatPath(f)
	if !strings.Contains(text, "cycle repeats forever") {
		t.Errorf("rendered path misses the cycle marker:\n%s", text)
	}
}

// TestProvClassPreferenceOrder asserts fired provclass chains steer which
// pool a scale-out draws from, with spectrum fallthrough on exhaustion.
func TestProvClassPreferenceOrder(t *testing.T) {
	pol := mustCheck(t, `
server.cpu.perc > 80 => balance({W}, cpu); provclass({vm});
`)
	sys := Compile(pol, DefaultEnvelope())
	c := sys.control(4, 13) // 81.25%: rule fires
	if !c.wantOut {
		t.Fatal("wantOut not set at 81.25%")
	}
	// vm preferred (slot 2), then spectrum order warm, container.
	if len(c.pref) != 3 || c.pref[0] != 2 || c.pref[1] != 0 || c.pref[2] != 1 {
		t.Errorf("pref = %v, want [2 0 1]", c.pref)
	}
	// Without a fired provclass rule the spectrum order stands.
	c = sys.control(4, 8)
	if c.wantOut || len(c.pref) != 3 || c.pref[0] != 0 {
		t.Errorf("idle ctl = %+v, want spectrum order", c)
	}
}

// TestWarmPoolDeadEndPath asserts the EPL203 counterexample actually
// drains the finite pool before stalling.
func TestWarmPoolDeadEndPath(t *testing.T) {
	pol := mustCheck(t, `
# lint:envelope classes=warm:2
server.cpu.perc > 80 =>
    balance({Worker}, cpu); provclass({warm});
`)
	findings := Check(pol)
	var f *Finding
	for i := range findings {
		if findings[i].Code == lint.CodePoolDeadEnd {
			f = &findings[i]
		}
	}
	if f == nil {
		t.Fatalf("no EPL203: %+v", findings)
	}
	outs := 0
	for _, st := range f.Path {
		if strings.Contains(st.Action, "scale-out(warm)") {
			outs++
		}
	}
	if outs != 2 {
		t.Errorf("path drains %d warm slots before the stall, want 2:\n%s", outs, FormatPath(*f))
	}
	last := f.Path[len(f.Path)-1]
	if !strings.Contains(last.Action, "STALLED") {
		t.Errorf("last step is %q, want the stalled scale-out", last.Action)
	}
}

// TestThreeValuedEval pins the Kleene semantics: unknown features
// neither enable (must-fire) nor disable (may-fire) a rule.
func TestThreeValuedEval(t *testing.T) {
	pol := mustCheck(t, `
server.cpu.perc > 50 and client.call(W(w).work).perc > 10 => reserve(w, cpu);
server.mem.perc > 50 => balance({W}, mem);
`)
	sys := Compile(pol, DefaultEnvelope())
	c := sys.control(4, 13) // cpu util 81.25%
	if len(c.fired) != 0 {
		t.Errorf("fired = %v; rules with unknown features must not must-fire", c.fired)
	}
	if !c.may[0] {
		t.Error("rule 0 should be may-enabled above 50% cpu")
	}
	if !c.may[1] {
		t.Error("rule 1 (unmodeled mem) should stay may-enabled")
	}
	c = sys.control(4, 4) // cpu util 25%
	if c.may[0] {
		t.Error("rule 0 must be provably disabled below 50% cpu")
	}
}

// TestChurnCycleFlagged covers the both-directions-in-one-period case:
// inverted thresholds make periods provision and drain simultaneously,
// which is an oscillation even where fleet size never settles.
func TestChurnCycleFlagged(t *testing.T) {
	pol := mustCheck(t, `
server.cpu.perc > 60 => balance({W}, cpu);
server.cpu.perc < 75 => balance({W}, cpu);
`)
	findings := Check(pol)
	found := false
	for _, f := range findings {
		if f.Code == lint.CodeOscillation {
			found = true
			cycle := f.Path[f.CycleFrom:]
			var out, in bool
			for _, st := range cycle {
				if strings.Contains(st.Action, "scale-out") {
					out = true
				}
				if strings.Contains(st.Action, "scale-in") {
					in = true
				}
			}
			if !out || !in {
				t.Errorf("cycle misses a direction (out %v, in %v):\n%s", out, in, FormatPath(f))
			}
			// The overlapping thresholds also force combined
			// provision+drain periods somewhere on the path.
			churn := false
			for _, st := range f.Path {
				if strings.Contains(st.Action, "scale-out") && strings.Contains(st.Action, "scale-in") {
					churn = true
				}
			}
			if !churn {
				t.Errorf("no combined churn period anywhere on the path:\n%s", FormatPath(f))
			}
		}
	}
	if !found {
		t.Fatal("no EPL200 for inverted thresholds")
	}
}

// TestStateSpaceStaysSmall guards the abstraction's footprint: the
// default envelope must compile typical policies into a few thousand
// states at most.
func TestStateSpaceStaysSmall(t *testing.T) {
	pol := mustCheck(t, `
server.cpu.perc > 80 or server.cpu.perc < 60 => balance({W}, cpu);
server.cpu.perc > 90 => provclass({warm, container});
`)
	sys := Compile(pol, DefaultEnvelope())
	if sys.truncated {
		t.Fatal("default envelope truncated")
	}
	if n := len(sys.states); n > 30000 {
		t.Errorf("state space has %d states, want well under 30k", n)
	}
}

// bandPolicies covers the four shapes of a balance rule's band: both bounds,
// upper only, lower only, and none on the balanced resource.
var bandPolicies = []string{
	`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({W}, cpu);`,
	`server.cpu.perc > 70 => balance({W}, cpu);`,
	`server.cpu.perc < 50 => balance({W}, cpu);`,
	`true => balance({W}, cpu);`,
}

// TestModelBandIsEMRBand holds the model to the band the EMR plans with: at
// every load level, a fired balance rule wants scale-out exactly when the
// uniform utilization is over the upper bound of epl.Band applied to the
// intent epl.Evaluate hands the EMR, and scale-in exactly when it is under
// the lower. The planner's side of the same contract is emr's
// TestPlannerBandIsEplBand; together they fail when the model and the EMR
// disagree on a policy's band.
func TestModelBandIsEMRBand(t *testing.T) {
	for _, src := range bandPolicies {
		pol := mustCheck(t, src)
		sys := Compile(pol, DefaultEnvelope())
		for load := sys.Env.MinLoad; load <= sys.Env.MaxLoad; load++ {
			c := sys.control(4, int16(load))
			snap := &epl.Snapshot{}
			for id := cluster.MachineID(0); id < 4; id++ {
				snap.Servers = append(snap.Servers, &epl.ServerInfo{ID: id, CPUPerc: c.util})
			}
			var out, in bool
			for _, bi := range epl.Evaluate(pol, snap.Index(), true, false).Balance {
				upper, lower := epl.Band(bi.Upper, bi.Lower)
				out = out || c.util > upper
				in = in || c.util < lower
			}
			if c.wantOut != out || c.wantIn != in {
				t.Errorf("%s at %.2f%%: model wants out=%v in=%v, the EMR's band says out=%v in=%v",
					src, c.util, c.wantOut, c.wantIn, out, in)
			}
		}
	}
}
