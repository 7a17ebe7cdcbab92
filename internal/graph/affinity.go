package graph

import (
	"cmp"
	"slices"
)

// Affinity is an undirected weighted communication graph over opaque int64
// node ids (actor ids in practice), held as one slice of directed edges
// sorted by (node, peer): a node's adjacency is a contiguous, peer-sorted
// run found by binary search. The planner builds it from a snapshot's
// profiled message counts when a round first needs it, once for all the
// period's GEM rounds, and uses it to keep chatty
// actors together: the affinity of an actor to a server is the summed edge
// weight toward actors resident there.
//
// The zero value is an empty graph. Reset keeps the backing array, so a
// graph rebuilt every round allocates only while it grows. Iteration order
// never depends on insertion order: edges sort on (node, peer, weight), so
// even the float sum of a duplicated edge is the same whichever Add came
// first.
type Affinity struct {
	edges  []AffEdge
	sealed bool
}

// AffEdge is one directed half of an undirected edge.
type AffEdge struct {
	Node, Peer int64
	Weight     float64
}

// Reset empties the graph, keeping its storage.
func (af *Affinity) Reset() { af.edges, af.sealed = af.edges[:0], false }

// Add accumulates weight onto the undirected edge (a, b). Self-edges and
// non-positive weights are ignored.
func (af *Affinity) Add(a, b int64, w float64) {
	if a == b || w <= 0 {
		return
	}
	af.edges = append(af.edges, AffEdge{a, b, w}, AffEdge{b, a, w})
	af.sealed = false
}

// Peers returns a's adjacency in ascending peer-id order, one entry per
// peer. The slice aliases the graph's storage: read it before the next Add.
func (af *Affinity) Peers(a int64) []AffEdge {
	if !af.sealed {
		af.seal()
	}
	lo, _ := slices.BinarySearchFunc(af.edges, a, func(e AffEdge, a int64) int { return cmp.Compare(e.Node, a) })
	hi := lo
	for hi < len(af.edges) && af.edges[hi].Node == a {
		hi++
	}
	return af.edges[lo:hi]
}

// seal sorts the edges and folds duplicates of one (node, peer) pair into
// a single entry carrying their summed weight.
func (af *Affinity) seal() {
	slices.SortFunc(af.edges, func(x, y AffEdge) int {
		return cmp.Or(cmp.Compare(x.Node, y.Node), cmp.Compare(x.Peer, y.Peer), cmp.Compare(x.Weight, y.Weight))
	})
	out := af.edges[:0]
	for _, e := range af.edges {
		if n := len(out); n > 0 && out[n-1].Node == e.Node && out[n-1].Peer == e.Peer {
			out[n-1].Weight += e.Weight
			continue
		}
		out = append(out, e)
	}
	af.edges, af.sealed = out, true
}
