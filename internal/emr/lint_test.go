package emr_test

import (
	"strings"
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/lint"
	"plasma/internal/sim"
)

// The policy gate is core.World.Manage; these cases pin what it lets through
// to an EMR.

// managePanic returns what World.Manage panics with on src ("" if it does
// not).
func managePanic(t *testing.T, src string) string {
	t.Helper()
	w := core.NewWorld(1, 2, cluster.M1Small, nil)
	msg := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				s, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %v is not a message", r)
				}
				msg = s
			}
		}()
		w.Manage(epl.MustParse(src), emr.Config{Period: sim.Second})
	}()
	return msg
}

// TestNewRejectsUnsatisfiablePolicy asserts the EMR fails fast at
// policy-load time: a rule that can never fire is a configuration bug, not
// something to discover after a day of simulated elasticity.
func TestNewRejectsUnsatisfiablePolicy(t *testing.T) {
	msg := managePanic(t, `server.cpu.perc > 80 and server.cpu.perc < 20 => balance({Worker}, cpu);`)
	if !strings.Contains(msg, "EPL001") {
		t.Fatalf("panic = %q, want a message naming EPL001", msg)
	}
}

// TestManageRejectsCompilerErrors asserts the gate runs the compiler's
// semantic check too, not only the lint passes: balance takes actor types,
// and a variable in its place is refused before any EMR exists.
func TestManageRejectsCompilerErrors(t *testing.T) {
	msg := managePanic(t, `Partition(p).cpu.perc > 30 => balance({p}, cpu);`)
	if !strings.Contains(msg, "balance takes actor types, not variables") {
		t.Fatalf("panic = %q, want the compiler's error", msg)
	}
}

// TestNewRecordsWarningDiagnostics asserts warning-severity findings — the
// lint passes' and epl.Check's §4.3 conflict warnings alike — are kept on the
// world for experiments to inspect, without rejecting the policy.
func TestNewRecordsWarningDiagnostics(t *testing.T) {
	w := core.NewWorld(1, 2, cluster.M1Small, nil)
	w.Manage(epl.MustParse(`
server.cpu.perc > 70 => balance({Worker}, cpu);
server.cpu.perc < 70 => balance({Worker}, cpu);
true => pin(Worker(w));
`), emr.Config{Period: sim.Second})
	found := map[string]bool{}
	for _, d := range w.Diagnostics {
		found[d.Code] = true
		if d.Severity >= lint.Error {
			t.Fatalf("unexpected error-severity diagnostic: %s", d)
		}
	}
	if !found[lint.CodeFlapping] || !found[epl.CodePinBalance] {
		t.Fatalf("want %s and %s; got %v", lint.CodeFlapping, epl.CodePinBalance, w.Diagnostics)
	}
}

// TestNewAcceptsNilPolicy keeps the no-policy construction path (used by
// baseline experiments) working.
func TestNewAcceptsNilPolicy(t *testing.T) {
	w := core.NewWorld(1, 2, cluster.M1Small, nil)
	if m := emr.New(w.K, w.C, w.RT, w.Prof, nil, emr.Config{Period: sim.Second}); m == nil {
		t.Fatal("nil policy rejected")
	}
}
