package graph

import (
	"math/rand"
	"sort"
)

// refPartitionMultilevel is the map-based partitioner PartitionMultilevel
// replaced, kept unchanged as the reference the dense CSR one must match
// element for element (TestPartitionMatchesReference).
func refPartitionMultilevel(g *Graph, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	w := newRefWorking(g)
	var levels []*refWorking
	for w.n > 40*k && len(levels) < 30 {
		levels = append(levels, w)
		next := w.coarsen(rng)
		if next.n >= w.n*9/10 {
			// Matching stopped making progress.
			w = next
			break
		}
		w = next
	}
	parts := w.initialPartition(k, rng)
	w.refine(parts, k, 4)
	// Project back through the levels, refining each.
	for i := len(levels) - 1; i >= 0; i-- {
		fine := levels[i]
		fineParts := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			fineParts[v] = parts[fine.coarseMap[v]]
		}
		fine.refine(fineParts, k, 4)
		parts = fineParts
	}
	return parts
}

// refWorking is one level of the multilevel hierarchy: an undirected weighted
// graph (vertex weights = collapsed vertex counts, edge weights = collapsed
// multiplicities).
type refWorking struct {
	n         int
	vw        []int           // vertex weights
	adj       []map[int32]int // adjacency with edge weights
	coarseMap []int           // fine vertex -> coarse vertex (set on the finer level)
}

func newRefWorking(g *Graph) *refWorking {
	w := &refWorking{n: g.N, vw: make([]int, g.N), adj: make([]map[int32]int, g.N)}
	for v := 0; v < g.N; v++ {
		w.vw[v] = 1
		w.adj[v] = make(map[int32]int)
	}
	// Symmetrize: partitioning treats the graph as undirected.
	for u := 0; u < g.N; u++ {
		for _, v := range g.Out[u] {
			if int(v) == u {
				continue
			}
			w.adj[u][v]++
			w.adj[v][int32(u)]++
		}
	}
	return w
}

// coarsen performs heavy-edge matching and builds the next level.
func (w *refWorking) coarsen(rng *rand.Rand) *refWorking {
	match := make([]int, w.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(w.n)
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		// Match with the unmatched neighbor of heaviest edge weight;
		// ties break toward the smaller vertex id so runs are
		// reproducible regardless of map iteration order.
		best, bestW := -1, 0
		for v, ew := range w.adj[u] {
			if match[v] >= 0 || int(v) == u {
				continue
			}
			if ew > bestW || (ew == bestW && best >= 0 && int(v) < best) {
				best, bestW = int(v), ew
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		} else {
			match[u] = u
		}
	}
	// Assign coarse ids.
	coarseID := make([]int, w.n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	next := &refWorking{}
	for u := 0; u < w.n; u++ {
		if coarseID[u] >= 0 {
			continue
		}
		id := next.n
		next.n++
		coarseID[u] = id
		if match[u] != u {
			coarseID[match[u]] = id
		}
	}
	next.vw = make([]int, next.n)
	next.adj = make([]map[int32]int, next.n)
	for i := range next.adj {
		next.adj[i] = make(map[int32]int)
	}
	for u := 0; u < w.n; u++ {
		cu := coarseID[u]
		next.vw[cu] += w.vw[u]
		for v, ew := range w.adj[u] {
			cv := coarseID[v]
			if cu == cv {
				continue
			}
			next.adj[cu][int32(cv)] += ew
		}
	}
	w.coarseMap = coarseID
	return next
}

// initialPartition greedily fills parts in decreasing vertex-weight order.
func (w *refWorking) initialPartition(k int, rng *rand.Rand) []int {
	parts := make([]int, w.n)
	order := make([]int, w.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return w.vw[order[i]] > w.vw[order[j]] })
	loads := make([]int, k)
	for _, v := range order {
		best := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		parts[v] = best
		loads[best] += w.vw[v]
	}
	return parts
}

// refine runs boundary KL passes: move a vertex to the neighboring part
// with the largest cut gain, provided vertex-weight balance stays within
// tolerance. Stops early when a pass makes no move.
func (w *refWorking) refine(parts []int, k, passes int) {
	loads := make([]int, k)
	var total int
	for v := 0; v < w.n; v++ {
		loads[parts[v]] += w.vw[v]
		total += w.vw[v]
	}
	maxLoad := int(float64(total)/float64(k)*1.05) + 1
	minLoad := int(float64(total) / float64(k) * 0.85)

	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < w.n; v++ {
			pv := parts[v]
			// Tally edge weight toward each part among neighbors.
			var gainTo map[int]int
			internal := 0
			for u, ew := range w.adj[v] {
				pu := parts[u]
				if pu == pv {
					internal += ew
					continue
				}
				if gainTo == nil {
					gainTo = make(map[int]int)
				}
				gainTo[pu] += ew
			}
			bestP, bestGain := -1, 0
			// Deterministic iteration over candidate parts.
			cands := make([]int, 0, len(gainTo))
			for p := range gainTo {
				cands = append(cands, p)
			}
			sort.Ints(cands)
			if loads[pv]-w.vw[v] < minLoad {
				continue // moving would under-fill the source part
			}
			for _, p := range cands {
				gain := gainTo[p] - internal
				if gain > bestGain && loads[p]+w.vw[v] <= maxLoad {
					bestP, bestGain = p, gain
				}
			}
			if bestP >= 0 {
				loads[pv] -= w.vw[v]
				loads[bestP] += w.vw[v]
				parts[v] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
