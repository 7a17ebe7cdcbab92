package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
	"unsafe"

	"plasma/internal/sim"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	if id := tr.Emit(Record{Kind: KindTick}); id != 0 {
		t.Fatalf("nil tracer Emit returned id %d, want 0", id)
	}
	tr.SetClock(func() sim.Time { return 5 }) // must not panic
	if New(nil) != nil {
		t.Fatal("New(nil) should yield the disabled (nil) tracer")
	}
}

func TestEmitAssignsIDsAndTime(t *testing.T) {
	ring := NewRing(8)
	tr := New(ring)
	now := sim.Time(0)
	tr.SetClock(func() sim.Time { return now })

	if id := tr.Emit(Record{Kind: KindTick, Server: -1}); id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	now = 42
	id2 := tr.Emit(Record{Kind: KindRuleEval, Parent: 1, Server: -1})
	if id2 != 2 {
		t.Fatalf("second id = %d, want 2", id2)
	}
	recs := ring.Records()
	if len(recs) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recs))
	}
	if recs[1].At != 42 || recs[1].Parent != 1 || recs[1].ID != 2 {
		t.Fatalf("second record = %+v", recs[1])
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	ring := NewRing(3)
	tr := New(ring)
	for i := 0; i < 5; i++ {
		tr.Emit(Record{Kind: KindChaos})
	}
	recs := ring.Records()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recs))
	}
	if recs[0].ID != 3 || recs[2].ID != 5 {
		t.Fatalf("ring kept ids %d..%d, want 3..5", recs[0].ID, recs[2].ID)
	}
	if ring.Dropped() != 2 {
		t.Fatalf("dropped=%d, want 2 of 5", ring.Dropped())
	}
}

// TestRingAllocatesWhatItHolds pins the ring's memory to the records it
// holds: construction costs nothing in proportion to the capacity, a chunk
// is allocated only when a record lands in it, and a wrapped ring emits
// without allocating.
func TestRingAllocatesWhatItHolds(t *testing.T) {
	var ring *Ring
	if b := allocated(func() { ring = NewRing(1 << 20) }); b > 4<<10 {
		t.Fatalf("NewRing(1<<20) allocated %d bytes, want at most 4 KB", b)
	}
	chunkBytes := uint64(chunkLen) * uint64(unsafe.Sizeof(Record{}))
	emit := func() {
		ring = NewRing(1 << 20)
		for i := 0; i < 5000; i++ {
			ring.Emit(Record{ID: uint64(i)})
		}
	}
	if b := allocated(emit); b > 5*chunkBytes+4<<10 {
		t.Fatalf("5,000 emits allocated %d bytes, want at most 5 chunks (%d bytes each)", b, chunkBytes)
	}

	small := NewRing(3000)
	for i := 0; i < 6000; i++ {
		small.Emit(Record{ID: uint64(i)})
	}
	if a := testing.AllocsPerRun(100, func() { small.Emit(Record{Kind: KindTick}) }); a != 0 {
		t.Fatalf("Emit into a wrapped ring made %v allocations, want 0", a)
	}
}

// allocated returns the fewest bytes f allocated over three runs: what the
// rest of the process (the race detector's runtime, say) allocates
// meanwhile only adds.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// BenchmarkRingEmit times one Emit into a ring that has wrapped, the steady
// state of a long traced run.
func BenchmarkRingEmit(b *testing.B) {
	ring := NewRing(4096)
	rec := Record{Kind: KindRuleFire, Server: 2, Target: -1, Actor: 7, Detail: "server.cpu.perc > 85 = 91.5"}
	for i := 0; i < 2*4096; i++ {
		ring.Emit(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ID = uint64(i)
		ring.Emit(rec)
	}
}

func sampleRecords() []Record {
	return []Record{
		{ID: 1, Parent: 0, At: 60_000_000, Kind: KindTick, Tick: 1, Server: -1, Target: -1, Rule: -1, Value: 60_000_000, Detail: "up=4"},
		{ID: 2, Parent: 1, At: 60_000_000, Kind: KindRuleEval, Tick: 1, Server: -1, Target: -1, Rule: 0, Value: 2, Detail: "lem"},
		{ID: 3, Parent: 2, At: 60_000_000, Kind: KindRuleFire, Tick: 1, Server: 2, Target: -1, Actor: 7, Rule: 0, Value: 0, Detail: `server.cpu.perc > 85 = 91.5`},
		{ID: 4, Parent: 1, At: 60_004_000, Kind: KindPropose, Tick: 1, Server: 2, Target: 0, Actor: 7, Rule: -1, Detail: "balance pri=40"},
		{ID: 5, Parent: 4, At: 60_008_000, Kind: KindDeny, Tick: 1, Server: 0, Target: -1, Actor: 7, Rule: -1, Detail: "over-bound cpu 91.2+3.4>85"},
	}
}

// streamRecords builds n records shaped like a stream world's trace: mostly
// chaos faults on control-plane messages, REPORT rounds naming their GEM,
// rule firings with their comparisons, and state transfers.
func streamRecords(n int) []Record {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, n)
	for i := range recs {
		r := Record{ID: uint64(i + 1), Parent: uint64(i / 8), At: sim.Time(1_000_000 + 1_000*i),
			Tick: int32(1 + i/2_000), Server: int32(rng.Intn(17)), Target: -1, Rule: -1}
		switch i % 8 {
		case 0, 1, 2, 3:
			r.Kind, r.Server = KindChaos, -1
			r.Detail = "REPORT lem" + strconv.Itoa(rng.Intn(17)) + "->gem0 delay " + sim.Duration(1+rng.Int63n(40_000)).String()
		case 4, 5:
			r.Kind, r.Value, r.Detail = KindReport, float64(rng.Intn(3)), "gem0"
		case 6:
			r.Kind, r.Actor, r.Rule = KindRuleFire, uint64(rng.Intn(4096)), 0
			r.Detail = "server.cpu.perc > 70 = " + strconv.FormatFloat(70+30*rng.Float64(), 'g', -1, 64)
		default:
			r.Kind, r.Target, r.Actor, r.Value = KindTransfer, int32(rng.Intn(17)), uint64(rng.Intn(4096)), 4194304
		}
		recs[i] = r
	}
	return recs
}

// hideGrow is a writer without a Grow method: what a file or stdout is to
// WriteJSONL.
type hideGrow struct{ w io.Writer }

func (h hideGrow) Write(p []byte) (int, error) { return h.w.Write(p) }

// edgeRecords holds every field at its extremes: ids and ints at their
// limits, an unknown kind, non-finite, signed-zero, subnormal and
// exponent-form values, and details that need escaping or are not UTF-8.
func edgeRecords() []Record {
	var recs []Record
	edge := Record{ID: math.MaxUint64, Parent: math.MaxUint64, At: math.MinInt64, Kind: numKinds + 3,
		Tick: math.MinInt32, Server: math.MinInt32, Target: math.MaxInt32, Actor: math.MaxUint64, Rule: math.MinInt32}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, 1e21, 4194304, -0.1, math.MaxFloat64} {
		edge.Value = v
		recs = append(recs, edge)
	}
	for _, det := range []string{"", "bad\xff\xfeutf8", "\x00\x01\x1f\x7f ctl", "tab\tnl\ncr\rbs\bff\f", `say "hi" \ bye`, "µs → 世\uFFFD", "\xe2\x82"} {
		edge.Detail = det
		recs = append(recs, edge)
	}
	return recs
}

// TestWriteJSONLSizesItsDestination: a destination that can grow gets the
// bytes a plain writer gets, in one allocation of (about) their size.
func TestWriteJSONLSizesItsDestination(t *testing.T) {
	recs := append(streamRecords(4096), edgeRecords()...)
	var plain, buf bytes.Buffer
	var sb strings.Builder
	for _, w := range []io.Writer{hideGrow{&plain}, &buf, &sb} {
		if err := WriteJSONL(w, recs); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), plain.Bytes()) || sb.String() != plain.String() {
		t.Fatal("a bytes.Buffer or strings.Builder destination got other bytes than a plain writer")
	}
	// Past 32 KB the allocator rounds a slice up to the next 8 KB page.
	if n, c := buf.Len(), cap(buf.Bytes()); n < 32<<10 || c-n >= 8<<10 {
		t.Fatalf("buffer holds %d bytes in a capacity of %d, want them within one 8 KB page", n, c)
	}
}

// TestWriteJSONLAllocCeiling keeps the export into a bytes.Buffer from
// regrowing it again: a stream-shaped trace costs one Grow of its own size
// plus 10% and 64 KB, not the doubling buffer's several times that. The
// Grow is measured, not assumed: a -race build does not fold
// bytes.Buffer's make-and-append, so there it allocates twice the size.
func TestWriteJSONLAllocCeiling(t *testing.T) {
	recs := streamRecords(1 << 16)
	var out bytes.Buffer
	if err := WriteJSONL(&out, recs); err != nil {
		t.Fatal(err)
	}
	size := out.Len()
	grow := allocated(func() {
		var buf bytes.Buffer
		buf.Grow(size)
	})
	b := allocated(func() {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, recs); err != nil {
			t.Fatal(err)
		}
	})
	if ceiling := grow + uint64(0.1*float64(size)) + 64<<10; b > ceiling {
		t.Fatalf("writing %d bytes of JSONL allocated %d, want at most %d (a Grow of that size: %d)", size, b, ceiling, grow)
	}
}

// BenchmarkWriteJSONL times exporting a stream-shaped trace of 64k records
// into a fresh bytes.Buffer, as the repository benchmark does each pass.
func BenchmarkWriteJSONL(b *testing.B) {
	recs := streamRecords(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, recs); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(recs) {
		t.Fatalf("wrote %d lines, want %d", n, len(recs))
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("read %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same records must serialize to identical bytes")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line must error")
	}
	bad := `{"id":1,"par":0,"at":0,"kind":"no-such-kind","tick":0,"srv":-1,"trg":-1,"actor":0,"rule":-1,"val":0,"det":""}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind must error, got %v", err)
	}
}

// Property: on printable text — ASCII and printable runes beyond it —
// appendJSONString writes exactly strconv.Quote's bytes, so every trace
// written before it keeps its bytes.
func TestJSONStringMatchesQuoteOnPrintable(t *testing.T) {
	alphabet := []rune("µé→世")
	for c := rune(' '); c <= '~'; c++ {
		alphabet = append(alphabet, c)
	}
	f := func(picks []uint16) bool {
		var sb strings.Builder
		for _, p := range picks {
			sb.WriteRune(alphabet[int(p)%len(alphabet)])
		}
		s := sb.String()
		return string(appendJSONString(nil, s)) == strconv.Quote(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTraceJSONL holds the JSONL format to JSON: ReadJSONL never panics on
// arbitrary bytes, every line AppendJSONL writes parses, and a record with
// a valid-UTF-8 detail and a finite value reads back exactly.
func FuzzTraceJSONL(f *testing.F) {
	for _, det := range []string{"bell\a", "vt\v", "bad\xff", "nul\x00"} {
		f.Add([]byte(det), 0.5)
	}
	f.Add(AppendJSONL(nil, sampleRecords()[2]), math.Inf(-1))
	f.Add([]byte("µs \"quoted\" \\ tab\t"), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, val float64) {
		_, _ = ReadJSONL(bytes.NewReader(data)) // garbage is an error, not a panic
		rec := Record{ID: 7, Parent: 3, At: 42, Kind: KindDeny, Server: 1, Target: -1, Actor: 9, Rule: -1, Value: val, Detail: string(data)}
		line := AppendJSONL(nil, rec)
		back, err := ReadJSONL(bytes.NewReader(line))
		if err != nil {
			t.Fatalf("AppendJSONL wrote a line ReadJSONL rejects: %v\n%s", err, line)
		}
		if len(back) != 1 {
			t.Fatalf("one record read back as %d", len(back))
		}
		if !utf8.Valid(data) || math.IsNaN(val) || math.IsInf(val, 0) {
			return
		}
		if back[0] != rec {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back[0], rec)
		}
	})
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d (%s) does not round-trip", k, k)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("bogus kind must not parse")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	// process_name + thread metadata + one event per record.
	var spans, instants int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["dur"].(float64) != 60_000_000 {
				t.Fatalf("tick span dur = %v, want 6e7", ev["dur"])
			}
		case "i":
			instants++
		}
	}
	if spans != 1 || instants != 4 {
		t.Fatalf("got %d spans, %d instants; want 1 and 4", spans, instants)
	}

	var again bytes.Buffer
	if err := WriteChromeTrace(&again, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("chrome export must be deterministic")
	}
}

func TestEmitIsAllocFreeWhenDisabled(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(Record{Kind: KindQuery, Server: 1, Target: 2, Actor: 3})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f per call, want 0", allocs)
	}
}
