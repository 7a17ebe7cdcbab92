package lint

import (
	"testing"

	"plasma/internal/epl"
)

// FuzzPolicy runs arbitrary policy source through the EPL front end and the
// analyzer. A source that parses must print to a policy that reparses and
// prints the same string, and neither epl.Check nor AnalyzePolicy may panic
// on it, whatever they find. The checked-in corpus (testdata/fuzz/FuzzPolicy)
// holds testdata/*.epl and, as app-*, every application policy: each
// internal/apps package's PolicySrc and the four Table 1 policies that
// internal/experiments/table1.go holds without an app package.
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
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("print → parse → print is not a fixed point\nprinted:\n%s\nreprinted:\n%s", printed, reprinted)
		}
		epl.Check(pol, nil)
		AnalyzePolicy(pol)
	})
}
