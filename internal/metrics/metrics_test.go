package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatal("empty histogram should report zero mean")
	}
	// An empty histogram has no percentile; 0 would be a fabricated sample.
	if got := h.Percentile(50); !math.IsNaN(got) {
		t.Fatalf("empty Percentile(50) = %v, want NaN", got)
	}
}

func TestHistogramPercentileClamped(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	// Out-of-range p clamps to the extremes instead of indexing out of range.
	if got := h.Percentile(150); got != 10 {
		t.Fatalf("p150 = %v, want 10", got)
	}
	if got := h.Percentile(-20); got != 1 {
		t.Fatalf("p-20 = %v, want 1", got)
	}
	if got := h.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile(NaN) = %v, want NaN", got)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := h.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
}

// A sample observed after a query moves the next query.
func TestHistogramObserveAfterQuery(t *testing.T) {
	var h Histogram
	h.Observe(5)
	if got := h.Percentile(50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	h.Observe(1)
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
}

func TestSeriesSummaries(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.MeanY(); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("mean = %v, want 4.5", got)
	}
	if got := s.MaxY(); got != 9 {
		t.Fatalf("max = %v, want 9", got)
	}
	// Last 20% of 10 points = {8, 9} -> mean 8.5.
	if got := s.TailMeanY(0.2); math.Abs(got-8.5) > 1e-9 {
		t.Fatalf("tail mean = %v, want 8.5", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.MeanY() != 0 || s.MaxY() != 0 || s.TailMeanY(0.5) != 0 {
		t.Fatal("empty series should report zeros")
	}
}

// Regression: a truncated-to-zero tail length (n=3, frac=0.1) must average
// the final sample, never divide by an empty tail.
func TestTailMeanYMinimumOneSample(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want float64 // Y values are 0..n-1
	}{
		{n: 3, frac: 0.1, want: 2},        // int(0.3)=0 -> floor to 1 sample
		{n: 1, frac: 0.99, want: 0},       // int(0.99)=0 -> 1 sample
		{n: 10, frac: 0.2, want: 8.5},     // exact: last 2 of 0..9
		{n: 10, frac: 0.25, want: 8.5},    // truncates to 2 samples
		{n: 4, frac: 1.0, want: 1.5},      // whole series
		{n: 4, frac: 2.5, want: 1.5},      // frac > 1 clamps to whole series
		{n: 5, frac: 0, want: 4},          // zero frac -> last sample
		{n: 5, frac: -0.5, want: 4},       // negative frac -> last sample
		{n: 5, frac: math.NaN(), want: 4}, // NaN frac -> last sample, not NaN
		{n: 2, frac: 0.5, want: 1},        // exact single sample
		{n: 100, frac: 0.001, want: 99},   // tiny frac on large n
	}
	for _, c := range cases {
		var s Series
		for i := 0; i < c.n; i++ {
			s.Add(float64(i), float64(i))
		}
		got := s.TailMeanY(c.frac)
		if math.IsNaN(got) || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TailMeanY(n=%d, frac=%v) = %v, want %v", c.n, c.frac, got, c.want)
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{50, 50, 50}); got != 0 {
		t.Fatalf("balanced imbalance = %v, want 0", got)
	}
	if got := Imbalance([]float64{0, 100}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("imbalance = %v, want 2", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Fatalf("nil imbalance = %v, want 0", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 0 {
		t.Fatalf("zero-mean imbalance = %v, want 0", got)
	}
}

// Property: Percentile is monotone in p and bounded by [p0, p100].
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			h.Observe(x)
		}
		if h.Count() == 0 {
			return true
		}
		min, max := h.Percentile(0), h.Percentile(100)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev || v < min || v > max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: p50 of distinct values matches the sorted median neighborhood.
func TestPropertyMedianWithinRange(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]float64, len(raw))
		for i, x := range raw {
			vals[i] = float64(x)
			h.Observe(float64(x))
		}
		sort.Float64s(vals)
		med := h.Percentile(50)
		return med >= vals[0] && med <= vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
