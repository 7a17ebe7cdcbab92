package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// messyGraph draws a graph that has what generated inputs lack: self-loops,
// repeated edges in both directions, a skewed endpoint choice, and a tail of
// vertices no edge touches.
func messyGraph(n int, rng *rand.Rand) *Graph {
	out := make([][]int32, n)
	live := n - n/5 // the last fifth stays isolated
	if live < 1 {
		live = 1
	}
	pick := func() int {
		x := rng.Float64()
		return int(x * x * float64(live)) // low ids are hubs
	}
	for e := rng.Intn(6*n + 1); e > 0; e-- {
		addMessyEdge(out, pick(), pick(), rng.Intn(8))
	}
	return &Graph{N: n, Out: out}
}

// addMessyEdge appends the edge u→v to out in the shape shape%8 picks: a
// self-loop on u, the edge twice, the edge and its reverse, or (5 in 8) the
// edge once.
func addMessyEdge(out [][]int32, u, v, shape int) {
	switch shape % 8 {
	case 0:
		v = u
	case 1:
		out[u] = append(out[u], int32(v))
	case 2:
		out[v] = append(out[v], int32(u))
	}
	out[u] = append(out[u], int32(v))
}

func TestPartitionMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 7, 41, 90, 250, 600, 1500, 3000}
	for seed := int64(1); seed <= 72; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := sizes[int(seed)%len(sizes)]
		var g *Graph
		if seed%4 == 0 {
			g = GeneratePowerLaw(n, 8, 2.1, seed)
		} else {
			g = messyGraph(n, rng)
		}
		var k int
		switch seed % 5 {
		case 0:
			k = 1
		case 1:
			k = 2 + rng.Intn(3) // coarsens once n > 40k
		case 2:
			k = n/40 + 1 + rng.Intn(8) // no coarsening
		case 3:
			k = n + 1 + rng.Intn(4) // more parts than vertices
		default:
			k = 2 + rng.Intn(63)
		}
		matchReference(t, g, k, seed)
	}
	// Part counts at and around the tally bitset's word boundaries, on
	// graphs large enough to coarsen.
	for i, k := range []int{63, 64, 65, 128, 129} {
		seed := int64(100 + i)
		g := GeneratePowerLaw(45*k, 8, 2.1, seed)
		if i%2 == 1 {
			g = messyGraph(45*k, rand.New(rand.NewSource(seed)))
		}
		matchReference(t, g, k, seed)
	}
}

// matchReference fails t unless PartitionMultilevel and the map-based
// reference assign every vertex of g to the same part.
func matchReference(t *testing.T, g *Graph, k int, seed int64) {
	t.Helper()
	got := PartitionMultilevel(g, k, seed)
	want := refPartitionMultilevel(g, k, seed)
	if len(got) != len(want) {
		t.Fatalf("seed %d (n=%d k=%d): %d assignments, reference %d", seed, g.N, k, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("seed %d (n=%d k=%d): vertex %d in part %d, reference %d", seed, g.N, k, v, got[v], want[v])
		}
	}
}

// FuzzPartition decodes a graph of up to 400 vertices with messyGraph's
// shapes and k in [1, 200], and requires PartitionMultilevel to match the
// map-based reference. Each edge is five bytes: two little-endian endpoints,
// taken modulo the first four fifths of the vertices (the rest stay
// isolated), and addMessyEdge's shape byte.
func FuzzPartition(f *testing.F) {
	f.Add(uint16(300), uint8(64), int64(1), []byte("\x00\x00\x01\x00\x03\x02\x00\x02\x00\x00\x05\x00\x40\x00\x01"))
	f.Fuzz(func(t *testing.T, n16 uint16, k8 uint8, seed int64, data []byte) {
		n, k := int(n16%401), 1+int(k8)%200
		out := make([][]int32, n)
		live := max(n-n/5, 1)
		for ; n > 0 && len(data) >= 5; data = data[5:] {
			u := int(binary.LittleEndian.Uint16(data)) % live
			v := int(binary.LittleEndian.Uint16(data[2:])) % live
			addMessyEdge(out, u, v, int(data[4]))
		}
		matchReference(t, &Graph{N: n, Out: out}, k, seed)
	})
}

// The cuts the map-based partitioner produced at the commit before the CSR
// one replaced it, graph and partition drawn from the same seed.
func TestPartitionGoldenCuts(t *testing.T) {
	for _, c := range []struct {
		n    int
		deg  float64
		k    int
		seed int64
		cut  int64
	}{
		{36000, 10, 56, 1, 311115},
		{36000, 10, 56, 2, 311171},
		{36000, 10, 56, 3, 311167},
		{12000, 10, 32, 1, 101128},
		{3000, 8, 8, 1, 17308},
	} {
		g := GeneratePowerLaw(c.n, c.deg, 2.1, c.seed)
		parts := PartitionMultilevel(g, c.k, c.seed)
		if err := Validate(parts, c.n, c.k); err != nil {
			t.Fatal(err)
		}
		if cut := EdgeCut(g, parts); cut != c.cut {
			t.Errorf("(%d, %v, k=%d) seed %d: edge cut %d, want %d", c.n, c.deg, c.k, c.seed, cut, c.cut)
		}
	}
}

// Edge counts and row digests of the graphs the generator drew before it got
// its guide table and one-shot row sizing.
func TestGenerateGolden(t *testing.T) {
	for _, c := range []struct {
		seed, edges int64
		digest      uint64
	}{
		{1, 361792, 0xc3c06feed8deed49},
		{2, 361752, 0x83f93d320b1eeb85},
	} {
		g := GeneratePowerLaw(36000, 10, 2.1, c.seed)
		if m := numEdges(g); m != c.edges {
			t.Errorf("seed %d: %d edges, want %d", c.seed, m, c.edges)
		}
		h := fnv.New64a()
		for _, row := range g.Out {
			binary.Write(h, binary.LittleEndian, int32(len(row)))
			binary.Write(h, binary.LittleEndian, row)
		}
		if d := h.Sum64(); d != c.digest {
			t.Errorf("seed %d: rows digest %#x, want %#x", c.seed, d, c.digest)
		}
	}
}

func TestCDFIndexMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 100, 4096, 36000} {
		// The generator's own distribution, and one whose sum overshoots 1.
		for _, over := range []float64{1, 1.0000001} {
			cum := make([]float64, n)
			var sum, acc float64
			for i := range cum {
				cum[i] = 1 / float64(i+10)
				sum += cum[i]
			}
			for i, w := range cum {
				acc += w / sum * over
				cum[i] = acc
			}
			c := newCDFIndex(cum)
			check := func(x float64) {
				if x < 0 || x >= 1 {
					return
				}
				if got, want := c.search(x), sort.SearchFloat64s(cum, x); got != want {
					t.Fatalf("n=%d over=%v x=%v: index %d, binary search says %d", n, over, x, got, want)
				}
			}
			for i := 0; i < 100000; i++ {
				check(rng.Float64())
			}
			// Bucket edges, the cum values themselves, and their neighbours.
			buckets := float64(len(c.guide) - 1)
			for b := 0.0; b <= buckets; b++ {
				edge := b / buckets
				check(edge)
				check(math.Nextafter(edge, 0))
				check(math.Nextafter(edge, 1))
			}
			for _, y := range cum {
				check(y)
				check(math.Nextafter(y, 0))
				check(math.Nextafter(y, 1))
			}
		}
	}
}

func mustPanicGraph(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "graph: ") {
			t.Errorf("%s: panic %q, want a graph:-prefixed message", name, msg)
		}
	}()
	f()
}

func TestEntryPointsRejectBadInput(t *testing.T) {
	g := &Graph{N: 3, Out: [][]int32{{1}, {2}, {0}}}
	mustPanicGraph(t, "k == 0", func() { PartitionMultilevel(g, 0, 1) })
	mustPanicGraph(t, "k < 0", func() { PartitionMultilevel(g, -2, 1) })
	mustPanicGraph(t, "short Out", func() { PartitionMultilevel(&Graph{N: 3, Out: g.Out[:2]}, 2, 1) })
	mustPanicGraph(t, "neighbor == N", func() { PartitionMultilevel(&Graph{N: 3, Out: [][]int32{{1}, {3}, {0}}}, 2, 1) })
	mustPanicGraph(t, "negative neighbor", func() { PartitionMultilevel(&Graph{N: 3, Out: [][]int32{{1}, {-1}, {0}}}, 2, 1) })
	mustPanicGraph(t, "EdgeCut short parts", func() { EdgeCut(g, []int{0, 1}) })
	mustPanicGraph(t, "negative avgDeg", func() { GeneratePowerLaw(10, -1, 2.1, 1) })
	mustPanicGraph(t, "NaN avgDeg", func() { GeneratePowerLaw(50, math.NaN(), 2.1, 1) })
	mustPanicGraph(t, "+Inf avgDeg", func() { GeneratePowerLaw(50, math.Inf(1), 2.1, 1) })
	mustPanicGraph(t, "NaN exponent", func() { GeneratePowerLaw(50, 8, math.NaN(), 1) })
	mustPanicGraph(t, "+Inf exponent", func() { GeneratePowerLaw(50, 8, math.Inf(1), 1) })

	if parts := PartitionMultilevel(&Graph{}, 4, 1); len(parts) != 0 {
		t.Errorf("empty graph: %d assignments", len(parts))
	}
}

var benchParts []int

func BenchmarkPartitionMultilevel(b *testing.B) {
	for _, c := range []struct{ n, k int }{{36000, 56}, {12000, 32}, {36000, 1024}} {
		b.Run(fmt.Sprintf("%dk_%d", c.n/1000, c.k), func(b *testing.B) {
			g := GeneratePowerLaw(c.n, 10, 2.1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchParts = PartitionMultilevel(g, c.k, 1)
			}
		})
	}
}

// Refinement tallies a vertex again only after a neighbor moved or a balance
// bound stopped it: 159,518 tallies here, where re-tallying every vertex on
// every pass, as the partitioner once did, makes 390,581.
func TestRefineTallyCeiling(t *testing.T) {
	g := GeneratePowerLaw(36000, 10, 2.1, 1)
	r := new(refiner)
	r.partition(g, 56, 1)
	if r.tallies > 175000 {
		t.Fatalf("%d vertex tallies in a 36k/56 partitioning, ceiling 175000", r.tallies)
	}
}

// The map-based partitioner made some 900,000 allocations here; the CSR one
// makes a few per level.
func TestPartitionAllocCeiling(t *testing.T) {
	g := GeneratePowerLaw(12000, 10, 2.1, 1)
	if allocs := testing.AllocsPerRun(3, func() { benchParts = PartitionMultilevel(g, 32, 1) }); allocs > 1000 {
		t.Fatalf("%.0f allocations per 12k/32 partitioning, ceiling 1000", allocs)
	}
}
