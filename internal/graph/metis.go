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
	r.seen, r.settled = make([]uint64, (k+63)/64), make([]bool, w.n)
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
	xadj      []int32 // row v is adj/wgt[xadj[v]:xadj[v+1]]
	adj, wgt  []int32 // neighbor ids and edge weights
	coarseMap []int32 // fine vertex -> coarse vertex (set on the finer level)
}

// add folds edge weight ew toward id into the row being appended, which
// begins at start. pos[id] remembers where id sits; what an earlier row
// left there points before start, so pos is never cleared between rows.
func (w *working) add(pos []int32, start, id, ew int32) {
	if p := pos[id]; p >= start {
		w.wgt[p] += ew
		return
	}
	pos[id] = int32(len(w.adj))
	w.adj = append(w.adj, id)
	w.wgt = append(w.wgt, ew)
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
	raw := make([]int32, entries)
	pos := make([]int32, n)
	copy(pos, xadj)
	for u, out := range g.Out[:n] {
		for _, v := range out {
			if int(v) != u {
				raw[pos[u]] = v
				pos[u]++
				raw[pos[v]] = int32(u)
				pos[v]++
			}
		}
	}
	// Fold the repeats into weights in place: the folded rows are written
	// over raw from the front and never overtake the entry being read.
	w := &working{n: n, vw: make([]int, n), xadj: xadj, adj: raw[:0], wgt: make([]int32, 0, entries)}
	for i := range pos {
		pos[i] = -1
	}
	for v := 0; v < n; v++ {
		w.vw[v] = 1
		row := raw[xadj[v]:xadj[v+1]]
		xadj[v] = int32(len(w.adj))
		for _, u := range row {
			w.add(pos, xadj[v], u, 1)
		}
	}
	xadj[n] = int32(len(w.adj))
	return w
}

// coarsen performs heavy-edge matching and builds the next level.
func (w *working) coarsen(rng *rand.Rand) *working {
	match := minusOnes(w.n)
	for _, u := range rng.Perm(w.n) {
		if match[u] >= 0 {
			continue
		}
		// Match with the unmatched neighbor of heaviest edge weight;
		// ties break toward the smaller vertex id.
		best, bestW := int32(-1), int32(0)
		for i := w.xadj[u]; i < w.xadj[u+1]; i++ {
			v, ew := w.adj[i], w.wgt[i]
			if match[v] < 0 && (ew > bestW || (ew == bestW && v < best)) {
				best, bestW = v, ew
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = int32(u)
		} else {
			match[u] = int32(u)
		}
	}
	// Coarse ids go to pairs in order of their smaller member.
	coarse := make([]int32, w.n)
	nc := 0
	for u, m := range match {
		if int(m) >= u {
			coarse[u] = int32(nc)
			coarse[m] = int32(nc)
			nc++
		}
	}
	w.coarseMap = coarse
	next := &working{
		n: nc, vw: make([]int, nc), xadj: make([]int32, nc+1),
		adj: make([]int32, 0, len(w.adj)), wgt: make([]int32, 0, len(w.adj)),
	}
	pos := minusOnes(nc)
	c := int32(0)
	for u, m := range match {
		if int(m) < u {
			continue // folded in with its smaller partner
		}
		start := int32(len(next.adj))
		next.xadj[c] = start
		for x := int32(u); ; x = m {
			next.vw[c] += w.vw[x]
			for i := w.xadj[x]; i < w.xadj[x+1]; i++ {
				if cv := coarse[w.adj[i]]; cv != c {
					next.add(pos, start, cv, w.wgt[i])
				}
			}
			if x == m {
				break
			}
		}
		c++
	}
	next.xadj[nc] = int32(len(next.adj))
	return next
}

// initialPartition greedily fills parts in decreasing vertex-weight order.
func (w *working) initialPartition(k int) []int {
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

// refiner is the scratch one partitioning shares across its refine calls.
type refiner struct {
	loads   []int    // vertex weight per part
	gain    []int32  // edge weight from the vertex in hand toward each part; zero between vertices
	seen    []uint64 // bit p set when gain[p] is not zero
	settled []bool   // per vertex of the level in hand (sized for the finest): its last tally found no gain
	tallies int      // vertices tallied, across every level
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
func (w *working) refine(parts []int, r *refiner) {
	loads, gain, seen, settled := r.loads, r.gain, r.seen, r.settled[:w.n]
	clear(settled)
	k := len(loads)
	for p := range loads {
		loads[p] = 0
	}
	var total int
	for v, p := range parts {
		loads[p] += w.vw[v]
		total += w.vw[v]
	}
	maxLoad := int(float64(total)/float64(k)*1.05) + 1
	minLoad := int(float64(total) / float64(k) * 0.85)

	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := 0; v < w.n; v++ {
			pv, vw := parts[v], w.vw[v]
			if settled[v] || loads[pv]-vw < minLoad {
				continue // nothing changed near it, or moving would under-fill the source part
			}
			// Tally edge weight toward each part among neighbors, the
			// vertex's own part included.
			r.tallies++
			for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
				pu := parts[w.adj[i]]
				gain[pu] += w.wgt[i]
				seen[pu>>6] |= 1 << (uint(pu) & 63)
			}
			internal := gain[pv]
			// Parts in ascending order, so keeping only a strictly larger
			// gain breaks ties toward the smaller part id.
			bestP, bestGain, open := -1, int32(0), false
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
			settled[v] = !open
			if bestP >= 0 {
				loads[pv] -= vw
				loads[bestP] += vw
				parts[v] = bestP
				moved++
				for _, u := range w.adj[w.xadj[v]:w.xadj[v+1]] {
					settled[u] = false
				}
			}
		}
		if moved == 0 {
			break
		}
	}
}
