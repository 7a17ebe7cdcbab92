package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"plasma/internal/trace"
)

// sweepInputs is the traced runs' Inputs, shared by every id as
// plasma-sim's sweep shares them.
var sweepInputs = &Inputs{}

// runCaptured executes one experiment id at a seed with a capturing tracer
// and returns everything a byte-level comparison needs: the rendered
// report, the decision-trace JSONL bytes, and the kernel event count; and
// the run's claim clauses.
func runCaptured(t *testing.T, id string, seed int64) (render string, traceJSONL []byte, events uint64, clauses []Clause) {
	t.Helper()
	ring := trace.NewRing(1 << 20)
	tr := trace.New(ring)
	res, err := Run(id, Config{Seed: seed, Trace: tr, Inputs: sweepInputs})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if d := ring.Dropped(); d != 0 {
		t.Fatalf("%s: trace ring dropped %d records; grow the ring", id, d)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, ring.Records()); err != nil {
		t.Fatalf("%s: encode trace: %v", id, err)
	}
	return res.Render(), buf.Bytes(), res.EventsFired, res.Clauses
}

// TestAllQuickIDsDeterministic is the all-ids determinism regression: every
// experiment id, run quick twice at seed 1 and twice at seed 2, must produce
// a byte-identical rendered report, byte-identical decision-trace JSONL, and
// the same kernel event count within each pair. Go randomises the order of
// every map range, so each pair is an independent chance to catch map order
// leaking into a report or a trace. The first run at each seed must also
// hold its row's claim, every clause named, with the paper's words, and its
// margin's sign agreeing with its verdict. Five runs of an id share one process, so a runner
// that wrote into its (shared) size value would show here too.
//
// The fifth is the id's untraced seed-1 run (seedOne). It must render what
// the traced run renders, so observation is passive
// (TestRunSweepsEveryPeriodAndArm reads the same run's record). It builds
// its own inputs, where the traced runs share sweepInputs, so a shared
// input changes nothing either.
func TestAllQuickIDsDeterministic(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				aRender, aTrace, aEvents, clauses := runCaptured(t, id, seed)
				if v := Verdict(clauses); v != "holds" {
					t.Errorf("seed %d: claim %s", seed, v)
				}
				for _, c := range clauses {
					if c.Name == "" || c.Paper == "" || !marginAgrees(c) {
						t.Errorf("seed %d: clause %q lacks a name or the paper's words, or its margin disagrees with its verdict", seed, c)
					}
				}
				if seed == 1 {
					if plain, _ := runSeedOne(t, id); plain.Render() != aRender {
						t.Errorf("tracing changed the report:\n--- untraced ---\n%s\n--- traced ---\n%s", plain.Render(), aRender)
					}
				}
				bRender, bTrace, bEvents, _ := runCaptured(t, id, seed)
				if aEvents != bEvents {
					t.Errorf("seed %d: events fired: first run %d, second run %d", seed, aEvents, bEvents)
				}
				if aRender != bRender {
					t.Errorf("seed %d: rendered report diverged:\n--- first ---\n%s\n--- second ---\n%s", seed, aRender, bRender)
				}
				if !bytes.Equal(aTrace, bTrace) {
					t.Errorf("seed %d: trace JSONL diverged:\n%s", seed, firstTraceDiff(aTrace, bTrace))
				}
			}
		})
	}
}

// firstTraceDiff locates the first differing JSONL line for a readable
// failure message (full traces run to megabytes).
func firstTraceDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nfirst:  %s\nsecond: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: first %d, second %d", len(al), len(bl))
}
