package graph

import (
	"slices"
	"testing"
)

func TestAffinityAccumulatesUndirected(t *testing.T) {
	var af Affinity
	af.Add(1, 2, 10)
	af.Add(2, 1, 5)
	af.Add(1, 1, 99) // self-edge ignored
	af.Add(1, 3, -1) // non-positive ignored
	af.Add(3, 1, 0)
	want1 := []AffEdge{{Node: 1, Peer: 2, Weight: 15}}
	want2 := []AffEdge{{Node: 2, Peer: 1, Weight: 15}}
	if got := af.Peers(1); !slices.Equal(got, want1) {
		t.Fatalf("peers(1) = %+v, want %+v", got, want1)
	}
	if got := af.Peers(2); !slices.Equal(got, want2) {
		t.Fatalf("peers(2) = %+v, want %+v", got, want2)
	}
	if got := af.Peers(3); len(got) != 0 {
		t.Fatalf("peers(3) = %+v, want none", got)
	}
}

func TestAffinityPeersSortedAndResealed(t *testing.T) {
	var af Affinity
	af.Add(1, 9, 1)
	af.Add(1, 3, 2)
	af.Add(7, 1, 4)
	af.Add(1, 5, 3)
	peerIDs := func(a int64) (ids []int64) {
		for _, e := range af.Peers(a) {
			ids = append(ids, e.Peer)
		}
		return ids
	}
	if got := peerIDs(1); !slices.Equal(got, []int64{3, 5, 7, 9}) {
		t.Fatalf("peers = %v, want id-sorted [3 5 7 9]", got)
	}
	// Adding after a read unseals: the next read sorts and folds again.
	af.Add(1, 2, 1)
	af.Add(3, 1, 2)
	if got := peerIDs(1); !slices.Equal(got, []int64{2, 3, 5, 7, 9}) {
		t.Fatalf("resealed peers = %v, want [2 3 5 7 9]", got)
	}
	if w := af.Peers(1)[1].Weight; w != 4 {
		t.Fatalf("weight(1,3) after reseal = %v, want 2+2", w)
	}
	// Reset empties the graph and keeps the storage for the next round.
	af.Reset()
	if got := af.Peers(1); len(got) != 0 {
		t.Fatalf("peers after Reset = %+v, want none", got)
	}
	af.Add(4, 1, 1)
	if got := peerIDs(1); !slices.Equal(got, []int64{4}) {
		t.Fatalf("peers after rebuild = %v, want [4]", got)
	}
}

// The sealed form is a function of the edge multiset alone: inserting the
// same edges in another order yields the same adjacency, weight sums
// included.
func TestAffinityInsertionOrderIrrelevant(t *testing.T) {
	edges := [][3]float64{{1, 2, 0.1}, {2, 1, 0.2}, {1, 2, 0.3}, {3, 1, 7}, {2, 3, 1e-9}}
	var fwd, rev Affinity
	for _, e := range edges {
		fwd.Add(int64(e[0]), int64(e[1]), e[2])
	}
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		rev.Add(int64(e[1]), int64(e[0]), e[2])
	}
	for a := int64(1); a <= 3; a++ {
		if f, r := fwd.Peers(a), rev.Peers(a); !slices.Equal(f, r) {
			t.Fatalf("peers(%d) differ by insertion order: %+v vs %+v", a, f, r)
		}
	}
}
