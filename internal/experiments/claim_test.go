package experiments

import (
	"math"
	"strings"
	"testing"
)

// marginAgrees reports whether c's margin has its verdict's sign: at least 0
// when it holds, at most 0 (or NaN) when it fails.
func marginAgrees(c Clause) bool {
	m := c.Margin()
	if c.Holds() {
		return m >= 0
	}
	return !(m > 0)
}

// invariantClause is r's last clause, the invariant sweep's.
func invariantClause(t *testing.T, r *Result) Clause {
	t.Helper()
	if len(r.Clauses) == 0 || r.Clauses[len(r.Clauses)-1].Name != "violations" {
		t.Fatalf("%s: no invariant clause last in %v", r.ID, r.Clauses)
	}
	return r.Clauses[len(r.Clauses)-1]
}

// Every comparison held and failed, "==" both ways and a NaN value: the
// verdict is each clause's comparison, its margin has the verdict's sign and
// is no larger than the slack itself, and the failure text lists the failing
// clauses in order, the invariant sweep's period lines last and in period
// order. fig7a at seed 8 compares against Mizan's gain, near zero.
func TestClauseVerdict(t *testing.T) {
	cases := []struct {
		c    Clause
		held bool
	}{
		{Clause{Name: "lt", Value: 1, Op: "<", Threshold: 2}, true},
		{Clause{Name: "lt_at_bound", Value: 2, Op: "<", Threshold: 2}, false},
		{Clause{Name: "le_at_bound", Value: 2, Op: "<=", Threshold: 2}, true},
		{Clause{Name: "le", Value: 3, Op: "<=", Threshold: 2}, false},
		{Clause{Name: "gt", Value: 3, Op: ">", Threshold: -2}, true},
		{Clause{Name: "gt_zero", Value: -1, Op: ">", Threshold: 0}, false},
		{Clause{Name: "ge", Value: 2, Op: ">=", Threshold: 2}, true},
		{Clause{Name: "ge_under", Value: 1.9, Op: ">=", Threshold: 2}, false},
		{Clause{Name: "eq", Value: 4, Op: "==", Threshold: 4}, true},
		{Clause{Name: "eq_off", Value: 5, Op: "==", Threshold: 4}, false},
		{Clause{Name: "nan", Value: math.NaN(), Op: "<=", Threshold: 1}, false},
		{Clause{Name: "fig7a_seed8", Value: -4.784, Op: ">", Threshold: -0.04698}, false},
	}
	var all, failing []Clause
	for _, tc := range cases {
		if tc.c.Holds() != tc.held {
			t.Errorf("%s: holds %v, want %v", tc.c, tc.c.Holds(), tc.held)
		}
		if !marginAgrees(tc.c) {
			t.Errorf("%s: margin's sign disagrees with the verdict", tc.c)
		}
		if math.Abs(tc.c.Margin()) > math.Abs(tc.c.Value-tc.c.Threshold) {
			t.Errorf("%s: margin exceeds the slack %g", tc.c, tc.c.Value-tc.c.Threshold)
		}
		all = append(all, tc.c)
		if !tc.held {
			failing = append(failing, tc.c)
		}
	}
	if m := cases[0].c.Margin(); m != 0.5 {
		t.Errorf("lt margin %v, want (2−1)/|2| = 0.5", m)
	}
	if v := Verdict(all[:1]); v != "holds" {
		t.Errorf("verdict of a held clause: %q", v)
	}

	lines := []string{"period 9 (t = 0µs): a", "period 10 (t = 0µs): b", "period 100 (t = 0µs): c"}
	e := experiment{id: "hand", claim: func(*Result) []Clause { return all }, run: func(cfg Config, _ *Result) {
		cfg.stats.violations = append(cfg.stats.violations, violation{100, lines[2]}, violation{9, lines[0]}, violation{10, lines[1]})
	}}
	r := e.exec(Config{}, &simTracker{})
	var want []string
	for _, c := range append(failing, invariantClause(t, r)) {
		want = append(want, c.String())
	}
	want = append(want, lines...)
	if got := Verdict(r.Clauses); got != "FAILS: "+strings.Join(want, "\n") {
		t.Errorf("verdict\n%s\nwant\nFAILS: %s", got, strings.Join(want, "\n"))
	}
}
