package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	samples := slices.Concat(h.blocks...)
	want := sortPercentile(samples, p)
	got := h.Percentile(p)
	switch {
	case math.IsNaN(want):
		if math.IsNaN(got) {
			return
		}
	case want == 0 && got == 0 && bothZeros(samples):
		return
	case math.Float64bits(got) == math.Float64bits(want):
		return
	}
	t.Fatalf("n=%d: Percentile(%v) = %v, sort reference %v", len(samples), p, got, want)
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
// interleaved with queries.
func TestPercentileMatchesSort(t *testing.T) {
	ps := []float64{-10, 0, 1e-9, 0.5, 1, 25, 50, 90, 95, 99, 99.9, 100 - 1e-9, 100, 110}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for trial, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 100, 257, 1000, selectAll, selectAll + 1, 5000} {
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

// A query allocates nothing once its candidate buffer has grown to the
// ranges it selects in, Observe between queries included while the last
// block has room.
func TestPercentileAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < 3000; i++ {
		h.Observe(rng.ExpFloat64())
	}
	// 3000 samples leave 72 slots in the sixth block; the runs below add
	// 501, so Observe opens one block in 500 runs: 0 per run.
	allocs := testing.AllocsPerRun(500, func() {
		h.Observe(rng.ExpFloat64())
		h.Percentile(50)
		h.Percentile(99)
	})
	if allocs != 0 {
		t.Fatalf("Observe+Percentile allocated %v times per call, want 0", allocs)
	}
}

// Every sample is written once: 1 M Observe calls allocate the samples' 8
// bytes each, the first block's doubling and the partly filled last block
// (8 KB between them), and the block list: a 24-byte slice header per
// 512-sample block, under four per block as append grows the list. One
// array doubled as it fills allocates about 16 B per sample.
func TestHistogramStoresEachSampleOnce(t *testing.T) {
	const n = 1_000_000
	var h Histogram
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if ceiling := uint64(8*n + 8<<10 + 4*24*(n/blockLen+1)); got > ceiling {
		t.Fatalf("1M Observe calls allocated %d B, ceiling %d (8 B a sample + 8 KB + 96 B a block)", got, ceiling)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
}

// A query moves no sample: after any mix of queries the blocks hold what was
// observed, in order, and Mean reads the same bits as before.
func TestPercentileLeavesSamplesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, n := range []int{1, 7, 512, 513, 5000} {
		var h Histogram
		want := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 1e3
			if rng.Intn(8) == 0 {
				x = specials[rng.Intn(len(specials))]
			}
			h.Observe(x)
			want = append(want, x)
		}
		mean := math.Float64bits(h.Mean())
		for _, p := range []float64{0, 1, 25, 50, 75, 99, 99.9, 100, rng.Float64() * 100} {
			h.Percentile(p)
			if got := math.Float64bits(h.Mean()); got != mean {
				t.Fatalf("n=%d: Mean bits %x after Percentile(%v), %x before", n, got, p, mean)
			}
			got := slices.Concat(h.blocks...)
			if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("n=%d: Percentile(%v) moved samples", n, p)
			}
		}
	}
}

var sinkPercentile float64

// BenchmarkPercentile times the p50 and p99 queries a benchmark run makes
// on its pooled latency samples. A query moves no sample, so every
// iteration queries the same histogram.
func BenchmarkPercentile(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 3_400_000} {
		rng := rand.New(rand.NewSource(1))
		var h Histogram
		for i := 0; i < n; i++ {
			h.Observe(16 + rng.ExpFloat64()*10)
		}
		name := fmt.Sprint(n)
		if n == 3_400_000 {
			name = "3.4M"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPercentile = h.Percentile(50) + h.Percentile(99)
			}
		})
	}
}

// BenchmarkObserve times filling a histogram with as many samples as a
// benchmark run pools, per op; its B/op is what the samples cost.
func BenchmarkObserve(b *testing.B) {
	const n = 3_400_000
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n)
	for i := range src {
		src[i] = 16 + rng.ExpFloat64()*10
	}
	b.Run("3.4M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var h Histogram
			for _, x := range src {
				h.Observe(x)
			}
			sinkPercentile = float64(h.Count())
		}
	})
}

// FuzzPercentile decodes bytes into a program of Observe calls and
// queries, and holds every query to the sort reference. A byte below 16
// observes a special value (NaN, ±Inf, ±0, extremes, a few small numbers),
// one below 0xE0 the small integer b-16, one below 0xF0 the float64 in the
// next eight bytes, and any other byte queries at p = next·120/255 - 10
// (NaN when the next byte is 0xFF). The program ends with p0, p50, p99 and
// p100. The one-key-range corpus entry observes only equal samples, across
// two blocks, so every query's candidate buffer holds all of them; the last
// seed queries at selectAll samples, where a query selects over them all,
// and again past it, where it counts key ranges first.
func FuzzPercentile(f *testing.F) {
	specials := [16]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 0.5, 2, 1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, -1e-300, 7}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0xF0, 0x80, 5, 6, 0xF0, 0xFF})
	f.Add([]byte{20, 20, 20, 17, 17, 0xF1, 128, 20, 20, 3, 4, 4, 3, 0xF2, 0, 0xF3, 255})
	crossing := make([]byte, 0, selectAll+24)
	for i := 0; i < selectAll; i++ {
		crossing = append(crossing, byte(16+i%200))
	}
	crossing = append(crossing, 0xF1, 128, 0xF1, 250, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0xF1, 128)
	f.Add(crossing)
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
