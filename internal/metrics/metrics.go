// Package metrics provides the small statistical building blocks used by
// PLASMA's experiment harnesses: histograms with exact percentile queries,
// time series, and SLO and recovery trackers.
package metrics

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Histogram collects float64 samples for percentile queries. It is not
// bucketed: experiment sample counts are small enough that exact percentiles
// are affordable and simpler to reason about.
//
// A percentile query selects the order statistics it needs in place instead
// of sorting: each query costs time linear in the sample count, and no state
// besides the samples is kept between queries. A query reorders the samples,
// so Mean, which sums them in their current order, can round differently
// after one; call it first where that matters.
type Histogram struct {
	samples []float64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if len(h.samples) == cap(h.samples) {
		// Double: append grows a large slice by a quarter, which copies a
		// histogram of millions of samples several times as often.
		h.samples = slices.Grow(h.samples, len(h.samples))
	}
	h.samples = append(h.samples, x)
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean reports the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	var s float64
	for _, x := range h.samples {
		s += x
	}
	return s / float64(len(h.samples))
}

// Percentile reports the p-th percentile using linear interpolation
// between closest ranks, ranks taken in sort.Float64s order (NaN first).
// p outside [0,100] is clamped to the nearest bound; an empty histogram (or
// a NaN p) reports NaN.
func (h *Histogram) Percentile(p float64) float64 {
	n := len(h.samples)
	if n == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	rank := min(max(p, 0), 100) / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	x := h.nth(lo)
	if lo == hi {
		return x
	}
	// nth left every sample after lo no smaller than x, so the next order
	// statistic is the least of them.
	y := h.samples[hi]
	for _, s := range h.samples[hi+1:] {
		if less(s, y) {
			y = s
		}
	}
	frac := rank - float64(lo)
	return x*(1-frac) + y*frac
}

// less is sort.Float64s' order: NaN before every number.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// nth reorders the samples so that samples[k] holds the k-th smallest, none
// after it is smaller and none before it larger, and returns it. It is an
// introselect: median-of-three Hoare partitions narrow the range holding k,
// and a range still unsettled after 2·⌈log2 n⌉ of them is sorted, which
// bounds the adversarial case at a sort's cost.
func (h *Histogram) nth(k int) float64 {
	a := h.samples
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a)-1)); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			break
		}
		// Order a[lo] <= a[mid] <= a[hi] and split at a[mid]'s value: both
		// scans then stop by mid on the first pass, and each side of the
		// split is non-empty.
		mid := lo + (hi-lo)/2
		if less(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if less(a[hi], a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
			if less(a[mid], a[lo]) {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		pivot := a[mid]
		i, j := lo-1, hi+1
		for {
			for i++; less(a[i], pivot); i++ {
			}
			for j--; less(pivot, a[j]); j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// a[lo..j] <= pivot <= a[j+1..hi].
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return a[k]
}

// Series is an append-only (x, y) trace used to reproduce the paper's
// figures (latency over time, CPU% over redistributions, ...).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.X) }

// MeanY reports the mean of Y (0 if empty).
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}

// MaxY reports the maximum of Y (0 if empty).
func (s *Series) MaxY() float64 {
	m := math.Inf(-1)
	for _, y := range s.Y {
		if y > m {
			m = y
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// TailMeanY reports the mean of the last frac (0,1] of the points, used to
// summarize "after convergence" behavior. The tail length truncates toward
// zero but always holds at least one sample, so small n/frac combinations
// (n=3, frac=0.1) average the final point instead of dividing by zero.
func (s *Series) TailMeanY(frac float64) float64 {
	n := len(s.Y)
	if n == 0 {
		return 0
	}
	tail := int(float64(n) * frac)
	if tail < 1 {
		tail = 1
	}
	if tail > n {
		tail = n
	}
	var sum float64
	for _, y := range s.Y[n-tail:] {
		sum += y
	}
	return sum / float64(tail)
}

// Imbalance reports (max-min)/mean for a set of values; 0 for empty input
// or zero mean. It quantifies load spread across servers.
func Imbalance(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	min, max, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return 0
	}
	return (max - min) / mean
}
