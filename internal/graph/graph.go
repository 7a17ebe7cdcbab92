// Package graph provides the graph substrate for the PageRank experiments:
// a seeded power-law (Chung–Lu style) social-graph generator standing in
// for SNAP's LiveJournal dataset, and a multilevel METIS-like partitioner.
//
// The property the paper's experiments rely on is that vertex-balanced
// partitions of a power-law graph have *uneven edge counts*, so per-partition
// compute (proportional to edges) is skewed even after "balanced"
// partitioning — which is exactly the imbalance PLASMA's balance rule fixes.
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is a directed graph in adjacency-list form.
type Graph struct {
	N   int
	Out [][]int32
}

// NumEdges reports the total directed edge count.
func (g *Graph) NumEdges() int64 {
	var m int64
	for _, adj := range g.Out {
		m += int64(len(adj))
	}
	return m
}

// GeneratePowerLaw builds a directed graph with n vertices and roughly
// n*avgDeg edges whose degree distribution follows a power law with the
// given exponent (typical social graphs: 2.0-2.5). Deterministic per seed.
func GeneratePowerLaw(n int, avgDeg float64, exponent float64, seed int64) *Graph {
	if n <= 0 {
		panic("graph: n must be positive")
	}
	// Negated so that NaN fails too: a NaN or infinite edge count converts
	// to a negative int64, leaving only the dangling-vertex fix-up edges.
	if !(exponent > 1) || math.IsInf(exponent, 1) {
		panic("graph: exponent must be finite and exceed 1")
	}
	if !(avgDeg >= 0) || math.IsInf(avgDeg, 1) {
		panic("graph: avgDeg must be finite and not negative")
	}
	rng := rand.New(rand.NewSource(seed))

	// Chung–Lu expected-degree weights: w_i ∝ (i + i0)^(-1/(exponent-1)).
	alpha := 1 / (exponent - 1)
	i0 := 10.0 // damps the largest hubs so the graph stays connected-ish
	weights := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		weights[i] = math.Pow(float64(i)+i0, -alpha)
		sum += weights[i]
	}
	// Cumulative distribution for endpoint sampling.
	cum := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += weights[i] / sum
		cum[i] = acc
	}
	endpoints := newCDFIndex(cum)
	sample := func() int32 {
		idx := endpoints.search(rng.Float64())
		if idx >= n {
			idx = n - 1
		}
		return int32(idx)
	}

	// Draw every edge before building rows, so each row is sized once.
	m := int64(float64(n) * avgDeg)
	edges := make([]int32, 0, 2*m)
	deg := make([]int32, n)
	for e := int64(0); e < m; e++ {
		u, v := sample(), sample()
		if u == v {
			continue
		}
		edges = append(edges, u, v)
		deg[u]++
	}
	// Guarantee every vertex has at least one out-edge (dangling vertices
	// complicate PageRank bookkeeping and never occur in LiveJournal's WCC).
	for v := 0; v < n; v++ {
		if deg[v] == 0 {
			edges = append(edges, int32(v), int32(rng.Intn(n)))
			deg[v] = 1
		}
	}
	// Rows are slices of one array, capped so that appending to one
	// reallocates it rather than running into the next.
	flat := make([]int32, len(edges)/2)
	out := make([][]int32, n)
	off := 0
	for v, d := range deg {
		end := off + int(d)
		out[v] = flat[off:off:end]
		off = end
	}
	for i := 0; i < len(edges); i += 2 {
		u := edges[i]
		out[u] = append(out[u], edges[i+1])
	}
	return &Graph{N: n, Out: out}
}

// cdfIndex answers sort.SearchFloat64s(cum, x) for x in [0, 1) from a guide
// table: guide[b] is the first index whose cum value falls in bucket b or a
// later one, so the answer for an x in bucket b lies in
// [guide[b], guide[b+1]] and only that stretch is searched. The bucket of a
// value is a non-decreasing function of it, computed the same way for table
// and query, which makes the narrowing exact whatever the rounding.
type cdfIndex struct {
	cum   []float64
	guide []int32 // len = buckets + 1
}

func newCDFIndex(cum []float64) *cdfIndex {
	buckets := 1
	for buckets < len(cum) {
		buckets <<= 1
	}
	c := &cdfIndex{cum: cum, guide: make([]int32, buckets+1)}
	b := 0
	for i, y := range cum {
		for ; b <= c.bucket(y); b++ {
			c.guide[b] = int32(i)
		}
	}
	for ; b <= buckets; b++ {
		c.guide[b] = int32(len(cum))
	}
	return c
}

// bucket maps [0, 1) onto the guide's buckets; an accumulated cum value a
// few ulps past 1 lands in the last one.
func (c *cdfIndex) bucket(y float64) int {
	buckets := len(c.guide) - 1
	return min(int(y*float64(buckets)), buckets-1)
}

func (c *cdfIndex) search(x float64) int {
	b := c.bucket(x)
	lo, hi := int(c.guide[b]), int(c.guide[b+1])
	return lo + sort.SearchFloat64s(c.cum[lo:hi], x)
}

// EdgeCut counts directed edges crossing partition boundaries.
func EdgeCut(g *Graph, parts []int) int64 {
	checkCovers(g, parts)
	var cut int64
	for u := 0; u < g.N; u++ {
		pu := parts[u]
		for _, v := range g.Out[u] {
			if parts[v] != pu {
				cut++
			}
		}
	}
	return cut
}

// checkCovers panics unless parts assigns every vertex of g.
func checkCovers(g *Graph, parts []int) {
	if len(parts) < g.N {
		panic(fmt.Sprintf("graph: %d assignments for %d vertices", len(parts), g.N))
	}
}

// Validate checks that parts is a complete assignment into [0, k).
func Validate(parts []int, n, k int) error {
	if len(parts) != n {
		return fmt.Errorf("graph: %d assignments for %d vertices", len(parts), n)
	}
	for v, p := range parts {
		if p < 0 || p >= k {
			return fmt.Errorf("graph: vertex %d assigned to invalid part %d", v, p)
		}
	}
	return nil
}
