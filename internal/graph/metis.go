package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// PartitionMultilevel is a METIS-style multilevel k-way partitioner:
//
//  1. coarsen the graph by repeated heavy-edge matching until it is small,
//  2. greedily partition the coarsest graph balancing vertex weight,
//  3. project the partition back up, refining at each level with a
//     boundary Kernighan–Lin pass that moves vertices to reduce edge cut
//     subject to a balance constraint on vertex weight.
//
// Like METIS, it balances *vertex* weight, so on power-law graphs the
// resulting parts have noticeably different edge counts — the compute skew
// the PageRank experiments exploit.
//
// It panics when k is not positive or g is malformed (fewer than N rows in
// Out, or an out-neighbor outside [0, N)).
func PartitionMultilevel(g *Graph, k int, seed int64) []int {
	return new(refiner).partition(g, k, seed)
}

// partition is PartitionMultilevel, sharing r's scratch across every level.
func (r *refiner) partition(g *Graph, k int, seed int64) []int {
	if k <= 0 {
		panic(fmt.Sprintf("graph: k must be positive, got %d", k))
	}
	rng := rand.New(rand.NewSource(seed))
	w := newWorking(g)
	r.loads, r.gain = make([]int, k), make([]int32, k)
	r.seen, r.settled, r.hub = make([]uint64, (k+63)/64), make([]bool, w.n), make([]int32, w.n)
	var levels []*working
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
	parts := w.initialPartition(k)
	w.refine(parts, r)
	// Project back through the levels, refining each.
	for i := len(levels) - 1; i >= 0; i-- {
		fine := levels[i]
		fineParts := make([]int, fine.n)
		for v, c := range fine.coarseMap {
			fineParts[v] = parts[c]
		}
		fine.refine(fineParts, r)
		parts = fineParts
	}
	return parts
}

// working is one level of the multilevel hierarchy: an undirected weighted
// graph (vertex weights = collapsed vertex counts, edge weights = collapsed
// multiplicities) in CSR form. A row names each neighbor once, in no
// particular order; every tie-break below is written on ids, so the order
// never shows. Edge weights are positive.
type working struct {
	n         int
	vw        []int   // vertex weights
	xadj      []int32 // row v is adj[xadj[v]:xadj[v+1]]
	adj       []edge
	coarseMap []int32 // fine vertex -> coarse vertex (set on the finer level)
}

// edge is a row entry: a neighbor and the weight of the edge toward it.
type edge struct{ to, w int32 }

// fold adds weight ew toward id to the row adj[start:end] and returns the
// row's new end. pos[id] remembers where id sits; what an earlier row left
// there points before start, so pos is never cleared between rows.
func fold(pos []int32, adj []edge, start, end, id, ew int32) int32 {
	if p := pos[id]; p >= start {
		adj[p].w += ew
		return end
	}
	pos[id], adj[end] = end, edge{id, ew}
	return end + 1
}

func minusOnes(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

func newWorking(g *Graph) *working {
	n := g.N
	if len(g.Out) < n {
		panic(fmt.Sprintf("graph: Out has %d rows for %d vertices", len(g.Out), n))
	}
	// Symmetrize: partitioning treats the graph as undirected, and a
	// self-loop can never be cut.
	xadj := make([]int32, n+1)
	var entries int64
	for u, out := range g.Out[:n] {
		for _, v := range out {
			if v < 0 || int(v) >= n {
				panic(fmt.Sprintf("graph: vertex %d has out-neighbor %d outside [0, %d)", u, v, n))
			}
			if int(v) != u {
				xadj[u+1]++
				xadj[v+1]++
				entries += 2
			}
		}
	}
	if entries > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d adjacency entries overflow the partitioner's int32 rows", entries))
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	// One entry per edge end first, repeats included; pos is the fill cursor.
	adj := make([]edge, entries)
	pos := make([]int32, n)
	copy(pos, xadj)
	for u, out := range g.Out[:n] {
		for _, v := range out {
			if int(v) != u {
				adj[pos[u]].to = v
				pos[u]++
				adj[pos[v]].to = int32(u)
				pos[v]++
			}
		}
	}
	// Fold the repeats into weights in place: the folded rows are written
	// from the front and never overtake the entry being read.
	w := &working{n: n, vw: make([]int, n), xadj: xadj}
	pos, end := minusOnes(n), int32(0)
	for v := 0; v < n; v++ {
		w.vw[v] = 1
		row := adj[xadj[v]:xadj[v+1]]
		start := end
		xadj[v] = start
		for _, e := range row {
			end = fold(pos, adj, start, end, e.to, 1)
		}
	}
	xadj[n] = end
	w.adj = adj[:end]
	return w
}

// coarsen performs heavy-edge matching and builds the next level.
func (w *working) coarsen(rng *rand.Rand) *working {
	match := minusOnes(w.n)
	for _, u := range rng.Perm(w.n) {
		if match[u] >= 0 {
			continue
		}
		// Match with the unmatched neighbor of heaviest edge weight, ties
		// toward the smaller vertex id: the largest key weight<<32 | ^id.
		var best uint64
		for _, e := range w.adj[w.xadj[u]:w.xadj[u+1]] {
			if match[e.to] < 0 {
				best = max(best, uint64(e.w)<<32|uint64(^uint32(e.to)))
			}
		}
		if best != 0 {
			v := int32(^uint32(best))
			match[u], match[v] = v, int32(u)
		} else {
			match[u] = int32(u)
		}
	}
	// Coarse ids go to pairs in order of their smaller member.
	coarse := make([]int32, w.n)
	nc := 0
	for u, m := range match {
		if int(m) >= u {
			coarse[u], coarse[m] = int32(nc), int32(nc)
			nc++
		}
	}
	w.coarseMap = coarse
	next := &working{n: nc, vw: make([]int, nc), xadj: make([]int32, nc+1), adj: make([]edge, len(w.adj))}
	pos := minusOnes(nc)
	c, end := int32(0), int32(0)
	for u, m := range match {
		if int(m) < u {
			continue // folded in with its smaller partner
		}
		start := end
		next.xadj[c] = start
		for x := int32(u); ; x = m {
			next.vw[c] += w.vw[x]
			for _, e := range w.adj[w.xadj[x]:w.xadj[x+1]] {
				if cv := coarse[e.to]; cv != c {
					end = fold(pos, next.adj, start, end, cv, e.w)
				}
			}
			if x == m {
				break
			}
		}
		c++
	}
	next.xadj[nc] = end
	next.adj = next.adj[:end]
	return next
}

// initialPartition greedily fills parts in decreasing vertex-weight order,
// each vertex going to the least-loaded part (ties toward the smaller id):
// the root of a binary heap of parts on (load, id).
func (w *working) initialPartition(k int) []int {
	parts := make([]int, w.n)
	order := make([]int, w.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return w.vw[order[i]] > w.vw[order[j]] })
	loads, heap := make([]int, k), make([]int, k)
	for p := range heap {
		heap[p] = p
	}
	less := func(a, b int) bool { return loads[a] < loads[b] || loads[a] == loads[b] && a < b }
	for _, v := range order {
		parts[v] = heap[0]
		loads[heap[0]] += w.vw[v]
		for i, c := 0, 1; c < k; i, c = c, 2*c+1 {
			if c+1 < k && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
		}
	}
	return parts
}

// refiner is the scratch one partitioning shares across its refine calls.
// Slices marked per vertex are sized for the finest level.
type refiner struct {
	loads   []int    // vertex weight per part
	gain    []int32  // edge weight from the vertex in hand toward each part; zero between vertices
	seen    []uint64 // bit p set when gain[p] is not zero
	settled []bool   // per vertex: its last tally found no gain
	hub     []int32  // per vertex: its row in rows, or -1
	rows    []int32  // edge weight from a hub toward each part, k per hub
	tallies int      // vertices tallied, across every level
	reads   int      // adjacency entries read to tally a vertex or build its row
}

const refinePasses = 4

// refine runs up to refinePasses boundary KL passes: move a vertex to the
// neighboring part with the largest cut gain (ties toward the smaller part
// id), provided vertex-weight balance stays within tolerance. Stops early
// when a pass makes no move.
//
// A vertex whose tally found no part with a positive gain is settled and
// skipped until a neighbor moves: its tally reads only its own part and its
// neighbors', so until then it would find the same gains again. One stopped
// only by the balance bounds stays unsettled, since loads change under it.
//
// A hub, a vertex with more neighbors than there are parts, keeps its
// weight toward each part in a row of rows, built once per call and kept
// current as its neighbors move; it tallies by reading that row in part
// order. Any other vertex tallies from its adjacency.
func (w *working) refine(parts []int, r *refiner) {
	loads, gain, seen, settled, hub := r.loads, r.gain, r.seen, r.settled[:w.n], r.hub[:w.n]
	clear(settled)
	k := len(loads)
	clear(loads)
	var total int
	for v, p := range parts {
		loads[p] += w.vw[v]
		total += w.vw[v]
	}
	maxLoad := int(float64(total)/float64(k)*1.05) + 1
	minLoad := int(float64(total) / float64(k) * 0.85)

	hubs := 0
	for v := range hub {
		hub[v] = -1
		if int(w.xadj[v+1]-w.xadj[v]) > k {
			hub[v] = int32(hubs)
			hubs++
		}
	}
	if cap(r.rows) < hubs*k {
		r.rows = make([]int32, 2*hubs*k) // coarse levels refine first, and finer ones tend to have more hubs
	}
	rows := r.rows[:hubs*k]
	clear(rows)
	for v, h := range hub {
		if h >= 0 {
			row := w.adj[w.xadj[v]:w.xadj[v+1]]
			for _, e := range row {
				rows[int(h)*k+parts[e.to]] += e.w
			}
			r.reads += len(row)
		}
	}

	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := 0; v < w.n; v++ {
			pv, vw := parts[v], w.vw[v]
			if settled[v] || loads[pv]-vw < minLoad {
				continue // nothing changed near it, or moving would under-fill the source part
			}
			r.tallies++
			// Parts in ascending order, so keeping only a strictly larger
			// gain breaks ties toward the smaller part id.
			bestP, bestGain, open := -1, int32(0), false
			if h := int(hub[v]); h >= 0 {
				row := rows[h*k : (h+1)*k]
				internal := row[pv]
				for p, c := range row {
					if g := c - internal; g > 0 {
						open = true
						if g > bestGain && loads[p]+vw <= maxLoad {
							bestP, bestGain = p, g
						}
					}
				}
			} else {
				// Tally edge weight toward each part among neighbors, the
				// vertex's own part included.
				row := w.adj[w.xadj[v]:w.xadj[v+1]]
				r.reads += len(row)
				for _, e := range row {
					pu := parts[e.to]
					gain[pu] += e.w
					seen[pu>>6] |= 1 << (uint(pu) & 63)
				}
				internal := gain[pv]
				for i, word := range seen {
					for ; word != 0; word &= word - 1 {
						p := i<<6 | bits.TrailingZeros64(word)
						g := gain[p] - internal
						gain[p] = 0
						open = open || g > 0
						if g > bestGain && loads[p]+vw <= maxLoad {
							bestP, bestGain = p, g
						}
					}
					seen[i] = 0
				}
			}
			settled[v] = !open
			if bestP >= 0 {
				loads[pv] -= vw
				loads[bestP] += vw
				parts[v] = bestP
				moved++
				for _, e := range w.adj[w.xadj[v]:w.xadj[v+1]] {
					settled[e.to] = false
					if h := int(hub[e.to]); h >= 0 {
						rows[h*k+pv] -= e.w
						rows[h*k+bestP] += e.w
					}
				}
			}
		}
		if moved == 0 {
			break
		}
	}
}
