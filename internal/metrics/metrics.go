// Package metrics provides the small statistical building blocks used by
// PLASMA's experiment harnesses: histograms with percentile queries,
// time series, and SLO and recovery trackers.
package metrics

import (
	"math"
	"sort"
)

// Histogram collects float64 samples for percentile queries. It is not
// bucketed: experiment sample counts are small enough that exact percentiles
// are affordable and simpler to reason about.
//
// Sorted state is maintained lazily and incrementally: queries sort only
// the samples appended since the last query and merge them into the sorted
// prefix, so a query burst costs one small tail sort instead of a full
// re-sort per call.
type Histogram struct {
	samples []float64
	nsorted int       // prefix of samples known sorted
	scratch []float64 // reused merge buffer
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
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

// Min reports the smallest sample (0 if empty).
func (h *Histogram) Min() float64 {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

// Max reports the largest sample (0 if empty).
func (h *Histogram) Max() float64 {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Percentile reports the p-th percentile using linear interpolation
// between closest ranks. p outside [0,100] is clamped to the nearest
// bound; an empty histogram (or a NaN p) reports NaN.
func (h *Histogram) Percentile(p float64) float64 {
	h.ensureSorted()
	n := len(h.samples)
	if n == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Stddev reports the population standard deviation (0 if fewer than 2).
func (h *Histogram) Stddev() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	m := h.Mean()
	var ss float64
	for _, x := range h.samples {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.nsorted = 0
}

// ensureSorted brings the whole sample slice into sorted order by sorting
// the unsorted tail and merging it into the already-sorted prefix.
func (h *Histogram) ensureSorted() {
	n := len(h.samples)
	if h.nsorted >= n {
		return
	}
	tail := h.samples[h.nsorted:]
	sort.Float64s(tail)
	// Skip the merge when the tail already extends the prefix.
	if h.nsorted > 0 && tail[0] < h.samples[h.nsorted-1] {
		h.mergeTail()
	}
	h.nsorted = n
}

// mergeTail merges samples[:nsorted] and samples[nsorted:] (both sorted)
// through a reused scratch buffer.
func (h *Histogram) mergeTail() {
	a := h.samples[:h.nsorted]
	b := h.samples[h.nsorted:]
	if cap(h.scratch) < len(h.samples) {
		h.scratch = make([]float64, len(h.samples))
	}
	out := h.scratch[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	copy(h.samples, out)
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
