package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"plasma/internal/trace"
)

// runCaptured executes one experiment id at seed 1 with a capturing tracer
// and returns everything a byte-level comparison needs: the rendered
// report, the decision-trace JSONL bytes, and the kernel event count.
func runCaptured(t *testing.T, id string) (render string, traceJSONL []byte, events uint64) {
	t.Helper()
	ring := trace.NewRing(1 << 20)
	tr := trace.New(ring)
	res, err := Run(id, Config{Seed: 1, Trace: tr})
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
// registered experiment id, run quick twice at seed 1, must produce a
// byte-identical rendered report, byte-identical decision-trace JSONL, and
// the same kernel event count.
func TestAllQuickIDsDeterministic(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			aRender, aTrace, aEvents := runCaptured(t, id)
			bRender, bTrace, bEvents := runCaptured(t, id)
			if aEvents != bEvents {
				t.Errorf("events fired: first run %d, second run %d", aEvents, bEvents)
			}
			if aRender != bRender {
				t.Errorf("rendered report diverged:\n--- first ---\n%s\n--- second ---\n%s", aRender, bRender)
			}
			if !bytes.Equal(aTrace, bTrace) {
				t.Errorf("trace JSONL diverged:\n%s", firstTraceDiff(aTrace, bTrace))
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
