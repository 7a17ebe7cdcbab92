package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortPercentile is the reference Percentile is held to: the sort-based
// percentile selection replaced, which sorts a copy of the samples and
// interpolates between closest ranks with the same expression.
func sortPercentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// checkPercentile fails t unless h.Percentile(p) is the reference's answer
// bit for bit. The order cannot tell NaNs apart, nor -0 from +0, so which
// of them lands on a rank is up to the algorithm: any NaN matches any NaN,
// and a zero matches a zero when the samples hold zeros of both signs.
func checkPercentile(t *testing.T, h *Histogram, p float64) {
	t.Helper()
	want := sortPercentile(h.samples, p)
	got := h.Percentile(p)
	switch {
	case math.IsNaN(want):
		if math.IsNaN(got) {
			return
		}
	case want == 0 && got == 0 && bothZeros(h.samples):
		return
	case math.Float64bits(got) == math.Float64bits(want):
		return
	}
	t.Fatalf("n=%d: Percentile(%v) = %v, sort reference %v", len(h.samples), p, got, want)
}

func bothZeros(samples []float64) bool {
	var neg, pos bool
	for _, x := range samples {
		if x == 0 {
			neg, pos = neg || math.Signbit(x), pos || !math.Signbit(x)
		}
	}
	return neg && pos
}

// Percentile matches the sort reference across sizes, duplicate-heavy and
// continuous values, ±Inf and NaN samples, p in [-10, 110], and Observe
// interleaved with queries (each query reorders what the next one sees).
func TestPercentileMatchesSort(t *testing.T) {
	ps := []float64{-10, 0, 1e-9, 0.5, 1, 25, 50, 90, 95, 99, 99.9, 100 - 1e-9, 100, 110}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for trial, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 100, 257, 1000, 2048, 5000} {
		for _, kind := range []string{"continuous", "duplicates", "specials"} {
			rng := rand.New(rand.NewSource(int64(trial)))
			draw := func() float64 {
				switch kind {
				case "duplicates":
					return float64(rng.Intn(5))
				case "specials":
					if rng.Intn(4) == 0 {
						return specials[rng.Intn(len(specials))]
					}
				}
				return rng.ExpFloat64() * 20
			}
			var h Histogram
			for i := 0; i < n; i++ {
				h.Observe(draw())
				if rng.Intn(n) < 3 {
					checkPercentile(t, &h, ps[rng.Intn(len(ps))])
				}
			}
			for _, p := range ps {
				checkPercentile(t, &h, p)
			}
			for i := 0; i < 20; i++ {
				checkPercentile(t, &h, rng.Float64()*120-10)
			}
		}
	}
}

// Inputs that defeat a naive pivot choice still match the reference.
func TestPercentileAdversarialInputs(t *testing.T) {
	const n = 100_000
	for _, in := range []struct {
		name string
		gen  func(i int) float64
	}{
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(n - i) }},
		{"all equal", func(int) float64 { return 7 }},
		{"organ pipe", func(i int) float64 { return float64(min(i, n-1-i)) }},
		{"two values", func(i int) float64 { return float64(i % 2) }},
	} {
		t.Run(in.name, func(t *testing.T) {
			for _, p := range []float64{0, 1, 50, 99, 99.99, 100} {
				var h Histogram
				for i := 0; i < n; i++ {
					h.Observe(in.gen(i))
				}
				checkPercentile(t, &h, p)
			}
		})
	}
}

// A query allocates nothing, Observe between queries included once the
// samples' array has room: there is no merge buffer to grow.
func TestPercentileAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < 3000; i++ {
		h.Observe(rng.ExpFloat64())
	}
	// 3000 samples sit in a 4096-slot array; the runs below add 501.
	allocs := testing.AllocsPerRun(500, func() {
		h.Observe(rng.ExpFloat64())
		h.Percentile(50)
		h.Percentile(99)
	})
	if allocs != 0 {
		t.Fatalf("Observe+Percentile allocated %v times per call, want 0", allocs)
	}
}

var sinkPercentile float64

// BenchmarkPercentile times the p50 and p99 queries a benchmark run makes
// on its pooled latency samples, freshly collected each time.
func BenchmarkPercentile(b *testing.B) {
	const n = 3_400_000
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n)
	for i := range src {
		src[i] = 16 + rng.ExpFloat64()*10
	}
	b.Run("3.4M", func(b *testing.B) {
		h := Histogram{samples: make([]float64, n)}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(h.samples, src)
			b.StartTimer()
			sinkPercentile = h.Percentile(50) + h.Percentile(99)
		}
	})
}

// FuzzPercentile decodes bytes into a program of Observe calls and
// queries, and holds every query to the sort reference. A byte below 16
// observes a special value (NaN, ±Inf, ±0, extremes, a few small numbers),
// one below 0xE0 the small integer b-16, one below 0xF0 the float64 in the
// next eight bytes, and any other byte queries at p = next·120/255 - 10
// (NaN when the next byte is 0xFF). The program ends with p0, p50, p99 and
// p100.
func FuzzPercentile(f *testing.F) {
	specials := [16]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 0.5, 2, 1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, -1e-300, 7}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0xF0, 0x80, 5, 6, 0xF0, 0xFF})
	f.Add([]byte{20, 20, 20, 17, 17, 0xF1, 128, 20, 20, 3, 4, 4, 3, 0xF2, 0, 0xF3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("longer programs only repeat what shorter ones reach")
		}
		var h Histogram
		for i := 0; i < len(data); i++ {
			switch b := data[i]; {
			case b < 16:
				h.Observe(specials[b])
			case b < 0xE0:
				h.Observe(float64(b - 16))
			case b < 0xF0:
				if i+8 < len(data) {
					h.Observe(math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
				}
				i += 8
			default:
				if i+1 < len(data) {
					p := math.NaN()
					if data[i+1] != 0xFF {
						p = float64(data[i+1])*120/255 - 10
					}
					checkPercentile(t, &h, p)
				}
				i++
			}
		}
		for _, p := range []float64{0, 50, 99, 100} {
			checkPercentile(t, &h, p)
		}
	})
}
