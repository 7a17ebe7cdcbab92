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
// Each sample is written once, into a first block that doubles up to
// blockLen samples and then fixed blocks of blockLen, and never moves: a
// query copies the samples into a candidate buffer kept on the histogram and
// selects within that buffer; past selectAll samples it counts them into key
// ranges first and copies only the range(s) holding the ranks it needs.
type Histogram struct {
	blocks       [][]float64
	n            int
	keyLo, keyHi uint64    // the samples' key range (see key)
	cand         []float64 // a query's candidates, reused by the next query
}

const (
	blockLen  = 512 // samples per block: 4 KB
	rangeBits = 12  // a query counts the samples into at most 1<<rangeBits key ranges
	// Selecting over all samples beats counting key ranges up to selectAll:
	// a p50+p99 pair took 8 vs 15 µs at 1,000 samples, 88 vs 59 at 4,000.
	selectAll = 2048
)

// key maps x to a uint64 ordered as sort.Float64s orders floats: every NaN
// first (as 0), then -Inf, the numbers and +Inf, -0 just below +0.
func key(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63) // negative: all bits flipped
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	k := key(x)
	switch last := len(h.blocks) - 1; {
	case last < 0:
		h.blocks = append(h.blocks, nil) // append doubles it up to blockLen
		h.keyLo, h.keyHi = k, k
	case len(h.blocks[last]) == blockLen:
		h.blocks = append(h.blocks, make([]float64, 0, blockLen))
	}
	b := &h.blocks[len(h.blocks)-1]
	*b = append(*b, x)
	h.keyLo, h.keyHi = min(h.keyLo, k), max(h.keyHi, k)
	h.n++
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return h.n }

// Mean reports the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var s float64
	for _, b := range h.blocks {
		for _, x := range b {
			s += x
		}
	}
	return s / float64(h.n)
}

// Percentile reports the p-th percentile using linear interpolation
// between closest ranks, ranks taken in sort.Float64s order (NaN first).
// p outside [0,100] is clamped to the nearest bound; an empty histogram (or
// a NaN p) reports NaN.
func (h *Histogram) Percentile(p float64) float64 {
	n := h.n
	if n == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	rank := min(max(p, 0), 100) / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// The candidates are every sample or, past selectAll, those of the key
	// ranges holding ranks lo and hi: count the samples into equal key
	// ranges, 2^bits.Len(n) of them up to 1<<rangeBits (any range between
	// the two is empty). Rank lo is rank lo-below among the candidates.
	cand, below := h.cand[:0], 0
	if n <= selectAll {
		cand = slices.Grow(cand, n)
		for _, b := range h.blocks {
			cand = append(cand, b...)
		}
	} else {
		shift := max(bits.Len64(h.keyHi-h.keyLo)-min(rangeBits, bits.Len(uint(n))), 0)
		var counts [1 << rangeBits]int
		for _, b := range h.blocks {
			for _, x := range b {
				counts[(key(x)-h.keyLo)>>shift]++
			}
		}
		first := 0
		for below+counts[first] <= lo {
			below += counts[first]
			first++
		}
		last, upTo := first, below+counts[first]
		for upTo <= hi {
			last++
			upTo += counts[last]
		}
		for _, b := range h.blocks {
			for _, x := range b {
				if r := int((key(x) - h.keyLo) >> shift); r >= first && r <= last {
					cand = append(cand, x)
				}
			}
		}
	}
	h.cand = cand
	k := lo - below
	x := nth(cand, k)
	if lo == hi {
		return x
	}
	// nth left every candidate after k no smaller than x, so the next order
	// statistic is the least of them.
	y := cand[k+1]
	for _, s := range cand[k+2:] {
		if less(s, y) {
			y = s
		}
	}
	frac := rank - float64(lo)
	return x*(1-frac) + y*frac
}

// less is sort.Float64s' order: NaN before every number.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// nth reorders a so that a[k] holds its k-th smallest, none after it is
// smaller and none before it larger, and returns it. It is an introselect:
// median-of-three Hoare partitions narrow the range holding k, and a range
// still unsettled after 2·⌈log2 n⌉ of them is sorted, which bounds the
// adversarial case at a sort's cost.
func nth(a []float64, k int) float64 {
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
	X, Y []float64
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
