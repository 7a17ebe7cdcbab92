package lint

import (
	"testing"

	"plasma/internal/epl"
)

// FuzzPolicy runs arbitrary policy source through the EPL front end and the
// analyzer. A source that parses must print to a policy that reparses to the
// same condition trees (compared through condTree) and prints the same
// string, and neither epl.Check nor AnalyzePolicy may panic on it, whatever
// they find. The checked-in corpus (testdata/fuzz/FuzzPolicy)
// holds testdata/*.epl; as app-*, every application policy: each
// internal/apps package's PolicySrc and the four Table 1 policies that
// internal/experiments/table1.go holds without an app package; and, as
// and-over-or, conditions whose grouping only parentheses state.
func FuzzPolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("longer sources only repeat what shorter ones reach")
		}
		pol, err := epl.Parse(src)
		if err != nil {
			return
		}
		printed := pol.String()
		again, err := epl.Parse(printed)
		if err != nil {
			t.Fatalf("printed policy does not reparse: %v\nsource:\n%s\nprinted:\n%s", err, src, printed)
		}
		for i, r := range pol.Rules {
			if got, want := condTree(again.Rules[i].Cond), condTree(r.Cond); got != want {
				t.Fatalf("rule %d reparses to another condition\nparsed:   %s\nreparsed: %s\nprinted:\n%s", i, want, got, printed)
			}
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("print → parse → print is not a fixed point\nprinted:\n%s\nreprinted:\n%s", printed, reprinted)
		}
		epl.Check(pol, nil)
		AnalyzePolicy(pol)
	})
}

// condTree writes c with every `and` and `or` in parentheses, so two
// conditions print the same only when their trees match.
func condTree(c epl.Cond) string {
	switch c := c.(type) {
	case *epl.AndCond:
		return "(" + condTree(c.L) + " and " + condTree(c.R) + ")"
	case *epl.OrCond:
		return "(" + condTree(c.L) + " or " + condTree(c.R) + ")"
	}
	return c.String()
}
