package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"plasma/internal/trace"
)

// runCaptured executes one experiment id at a seed with a capturing tracer
// and returns everything a byte-level comparison needs: the rendered
// report, the decision-trace JSONL bytes, and the kernel event count.
func runCaptured(t *testing.T, id string, seed int64) (render string, traceJSONL []byte, events uint64) {
	t.Helper()
	ring := trace.NewRing(1 << 20)
	tr := trace.New(ring)
	res, err := Run(id, Config{Seed: seed, Trace: tr})
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
	return res.Render(), buf.Bytes(), res.EventsFired
}

// TestAllQuickIDsDeterministic is the all-ids determinism regression: every
// registered experiment id, run quick twice at seed 1 and twice at seed 2,
// must produce a byte-identical rendered report, byte-identical
// decision-trace JSONL, and the same kernel event count within each pair.
// Go randomises the order of every map range, so each pair is an
// independent chance to catch map order leaking into a report or a trace.
func TestAllQuickIDsDeterministic(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				aRender, aTrace, aEvents := runCaptured(t, id, seed)
				bRender, bTrace, bEvents := runCaptured(t, id, seed)
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
