package trace

import "testing"

// refRing is the flat-array ring Ring replaced, kept unchanged as the
// reference the chunked one must match element for element
// (TestRingMatchesReference).
type refRing struct {
	buf   []Record
	start int
	n     int
	total uint64
}

func newRefRing(capacity int) *refRing {
	if capacity < 1 {
		capacity = 1
	}
	return &refRing{buf: make([]Record, capacity)}
}

func (r *refRing) Emit(rec Record) {
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
}

func (r *refRing) Records() []Record {
	out := make([]Record, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

func (r *refRing) Dropped() uint64 { return r.total - uint64(r.n) }

func TestRingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 1023, 1024, 1025, 2500} {
		for _, emits := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3 * capacity} {
			ring, ref := NewRing(capacity), newRefRing(capacity)
			for i := 1; i <= emits; i++ {
				rec := Record{ID: uint64(i), Kind: Kind(i % int(numKinds)), Value: float64(i)}
				ring.Emit(rec)
				ref.Emit(rec)
			}
			got, want := ring.Records(), ref.Records()
			if len(got) != len(want) {
				t.Fatalf("cap %d, %d emits: %d records, reference %d", capacity, emits, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cap %d, %d emits: record %d = %+v, reference %+v", capacity, emits, i, got[i], want[i])
				}
			}
			if ring.Dropped() != ref.Dropped() {
				t.Fatalf("cap %d, %d emits: dropped %d, reference %d", capacity, emits, ring.Dropped(), ref.Dropped())
			}
		}
	}
}
