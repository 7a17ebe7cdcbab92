package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

func testGraph() *Graph {
	return GeneratePowerLaw(2000, 8, 2.2, 42)
}

// partVertexCounts reports vertices per part.
func partVertexCounts(parts []int, k int) []int {
	counts := make([]int, k)
	for _, p := range parts {
		counts[p]++
	}
	return counts
}

// partEdgeCounts reports out-edges per part — the per-partition compute
// cost proxy for PageRank.
func partEdgeCounts(g *Graph, parts []int, k int) []int64 {
	counts := make([]int64, k)
	for u := 0; u < g.N; u++ {
		counts[parts[u]] += int64(len(g.Out[u]))
	}
	return counts
}

func TestGenerateDeterministic(t *testing.T) {
	a := GeneratePowerLaw(500, 6, 2.2, 7)
	b := GeneratePowerLaw(500, 6, 2.2, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge counts")
	}
	for v := 0; v < a.N; v++ {
		if len(a.Out[v]) != len(b.Out[v]) {
			t.Fatalf("vertex %d degree differs", v)
		}
	}
}

func TestGenerateSize(t *testing.T) {
	g := testGraph()
	if g.N != 2000 {
		t.Fatalf("N = %d", g.N)
	}
	m := g.NumEdges()
	// ~n*avgDeg minus dropped self loops, plus the >=1 out-degree fixups.
	if m < 12000 || m > 18000 {
		t.Fatalf("edges = %d, want ~16000", m)
	}
	for v := 0; v < g.N; v++ {
		if len(g.Out[v]) == 0 {
			t.Fatalf("vertex %d has no out-edges", v)
		}
	}
}

func TestGeneratePowerLawSkew(t *testing.T) {
	g := testGraph()
	degs := make([]int, g.N)
	for v := range degs {
		degs[v] = len(g.Out[v])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// Power-law graphs concentrate edges on hubs: the top 1% of vertices
	// must hold far more than 1% of the edges.
	top := 0
	for _, d := range degs[:g.N/100] {
		top += d
	}
	frac := float64(top) / float64(g.NumEdges())
	if frac < 0.05 {
		t.Fatalf("top 1%% of vertices hold %.1f%% of edges; not heavy-tailed", frac*100)
	}
}

func TestPartitionersProduceValidAssignments(t *testing.T) {
	g := testGraph()
	k := 8
	parts := PartitionMultilevel(g, k, 1)
	if err := Validate(parts, g.N, k); err != nil {
		t.Fatal(err)
	}
	for p, c := range partVertexCounts(parts, k) {
		if c == 0 {
			t.Fatalf("part %d empty", p)
		}
	}
}

func TestMultilevelBalancesVertices(t *testing.T) {
	g := testGraph()
	k := 8
	parts := PartitionMultilevel(g, k, 1)
	counts := partVertexCounts(parts, k)
	ideal := g.N / k
	for p, c := range counts {
		if c < ideal*70/100 || c > ideal*130/100 {
			t.Fatalf("part %d has %d vertices, ideal %d (counts=%v)", p, c, ideal, counts)
		}
	}
}

func TestMultilevelBeatsHashOnCut(t *testing.T) {
	g := testGraph()
	k := 8
	hash := make([]int, g.N)
	for v := range hash {
		hash[v] = v % k
	}
	hashCut := EdgeCut(g, hash)
	mlCut := EdgeCut(g, PartitionMultilevel(g, k, 1))
	if mlCut >= hashCut {
		t.Fatalf("multilevel cut %d not better than hash cut %d", mlCut, hashCut)
	}
}

func TestVertexBalancedPartsHaveEdgeSkew(t *testing.T) {
	// The property the PageRank experiments rely on: balancing vertices on
	// a power-law graph leaves edge (=compute) imbalance.
	g := GeneratePowerLaw(5000, 10, 2.1, 3)
	k := 8
	parts := PartitionMultilevel(g, k, 1)
	edges := partEdgeCounts(g, parts, k)
	min, max := edges[0], edges[0]
	for _, e := range edges {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if float64(max) < 1.1*float64(min) {
		t.Fatalf("edge counts too uniform (min=%d max=%d); no compute skew", min, max)
	}
}

func TestValidateRejectsBadAssignments(t *testing.T) {
	if Validate([]int{0, 1}, 3, 2) == nil {
		t.Fatal("short assignment accepted")
	}
	if Validate([]int{0, 5, 1}, 3, 2) == nil {
		t.Fatal("out-of-range part accepted")
	}
	if Validate([]int{0, 1, 1}, 3, 2) != nil {
		t.Fatal("valid assignment rejected")
	}
}

func TestPartEdgeCountsConserveEdges(t *testing.T) {
	g := testGraph()
	parts := PartitionMultilevel(g, 4, 9)
	edges := partEdgeCounts(g, parts, 4)
	var sum int64
	for _, e := range edges {
		sum += e
	}
	if sum != g.NumEdges() {
		t.Fatalf("edge counts sum %d != %d", sum, g.NumEdges())
	}
}

// Property: multilevel partitioning is deterministic per seed and always
// valid for arbitrary small graphs.
func TestPropertyMultilevelValid(t *testing.T) {
	f := func(edges []uint16, kRaw uint8) bool {
		n := 64
		k := int(kRaw%7) + 2
		out := make([][]int32, n)
		for i := 0; i+1 < len(edges); i += 2 {
			u := int(edges[i]) % n
			v := int(edges[i+1]) % n
			if u != v {
				out[u] = append(out[u], int32(v))
			}
		}
		g := &Graph{N: n, Out: out}
		p1 := PartitionMultilevel(g, k, 5)
		p2 := PartitionMultilevel(g, k, 5)
		if Validate(p1, n, k) != nil {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: refinement never loses vertices and EdgeCut is bounded by the
// number of edges.
func TestPropertyCutBounded(t *testing.T) {
	f := func(seed int64) bool {
		g := GeneratePowerLaw(300, 5, 2.3, seed%1000)
		parts := PartitionMultilevel(g, 4, seed%7)
		cut := EdgeCut(g, parts)
		return cut >= 0 && cut <= g.NumEdges() && Validate(parts, g.N, 4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
