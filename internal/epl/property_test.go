package epl

import (
	"math/rand"
	"testing"
)

// Property: generated policies (genDiffPolicy) that pass Check (against a
// nil schema) print to a fixpoint: String() re-parses to the same text and
// the same rule count.
func TestPropertyRandomPoliciesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		src := genDiffPolicy(rng)
		pol, err := Parse(src)
		if err != nil {
			t.Fatalf("generated policy failed to parse: %v\n%s", err, src)
		}
		if _, err := Check(pol, nil); err != nil {
			continue
		}
		printed := pol.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed policy failed to re-parse: %v\n%s", err, printed)
		}
		if again.String() != printed {
			t.Fatalf("String() not a fixpoint:\n%s\nvs\n%s", printed, again.String())
		}
		if len(again.Rules) != len(pol.Rules) {
			t.Fatalf("rule count changed across round trip")
		}
	}
}

// Property: evaluation never panics and dedup holds (no duplicate pins) on
// random snapshots (genDiffSnapshot) for random policies.
func TestPropertyEvaluateTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		in := Evaluate(MustParse(genDiffPolicy(rng)), genDiffSnapshot(rng), true, true)
		seenPin := map[string]bool{}
		for _, p := range in.Pin {
			key := p.Actor.String()
			if seenPin[key] {
				t.Fatalf("duplicate pin for %s", key)
			}
			seenPin[key] = true
		}
	}
}
