package sim

import "math/bits"

// This file implements the kernel's event queue: a monotone radix queue on
// the fire time at, whose bottom level is a wheel of one FIFO per
// microsecond.
//
// The kernel never schedules into the past (every at is clamped to now) and
// the order key (at, seq) — fire time, then scheduling order — has no ties,
// so the pop sequence is fixed by the key alone and the queue is free to
// exploit monotonicity.
//
// last is the instant of the latest pop; no queued event is earlier. An
// event in last's aligned 4,096 µs block (bits.Len64(at ^ last) <= 12) sits
// in the bottom level, in the slot of its own microsecond; a two-level
// occupancy bitmap, 64 words under one summary word, finds the lowest
// occupied slot, so 12 bits is the width one summary word covers, not a
// setting. Every later event sits in bucket b = bits.Len64(at ^ last), 13 to
// 63. A higher bucket holds strictly later events than a lower one, and
// every bucket later ones than the bottom. A pop takes the lowest occupied
// slot and moves last there, which moves no bucket's event: the index reads
// only last's bits 12 and up. When the bottom runs dry, refill empties the
// lowest bucket: its minimum is the event to fire, its instant becomes last,
// and the rest are re-filed against it, into their slots or into a bucket
// below the one they left; higher buckets keep their index because last
// changed only below their differing bit. An event is therefore moved at
// most once per bit of its delay above the bottom twelve, in sequential
// sweeps, instead of being compared down a heap whose every level is a cache
// miss at fleet scale. 64 buckets is the width of Time, not a setting.
//
// The key's seq is not stored anywhere: it is an event's position. An
// instant's events always share a slot, and it holds no other instant's. A
// push into the bottom appends to its slot, and its seq is larger than any
// queued one. The rest of an instant's events come from one refill of an
// empty bottom, in the order their bucket stored them, and that too is seq
// order: the bucket index is a function of at and last, so the events of one
// instant always share a bucket, and they enter it only by appends in
// scheduling order or all together, in their stored order, from the bucket
// above. So a slot is a FIFO already in seq order, and within a bucket the
// first-stored event of the earliest instant is the minimum, which a refill
// finds with a strict < on at alone. The minimum goes from the bucket
// straight to the kernel and never enters a slot.
//
// Bucket events are stored inline (scheduling allocates nothing in steady
// state) in fixed-size chunks drawn from one pool shared by all buckets.
// Queue memory is what the queued events need, whichever bucket they are
// in: the periodic ticks of a large fleet pass through a fresh high bucket
// every time the clock crosses a power of two, and a slice per bucket grown
// by append would give each of those its own fleet-sized array. Slot
// entries are nodes of one arena with a free list, so it holds the bottom's
// peak occupancy; the 32 KB slot table is allocated on first use.
//
// Nothing is ever removed from the queue but its minimum: an event, once
// scheduled, fires.

// event is one scheduled callback, 16 bytes: its fire time and the callback.
// Its place in the (at, seq) order is its fire time, then its position in
// the queue (see the file comment).
type event struct {
	at Time
	fn func()
}

// A chunk is the unit bucket storage is handed out in: 32 events, 512 B —
// small enough that the twenty-odd buckets a short-lived kernel touches cost
// it less than the heap's doubling did, large enough that a refill streams.
const (
	chunkShift = 5
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type chunk [chunkLen]event

// bucket holds events in the order they were filed; every chunk but the last
// is full.
type bucket struct {
	chunks []*chunk
	n      int
}

// used is the filled part of c, the ci-th chunk of a bucket holding n events.
func used(c *chunk, ci, n int) []event { return c[:min(chunkLen, n-ci<<chunkShift)] }

// The bottom level: one slot per microsecond of last's 4,096 µs block.
const (
	slotBits = 12
	nSlots   = 1 << slotBits
	slotMask = nSlots - 1
)

// node is a slot entry: the callback and the arena index of the next node of
// its slot or of the free list. A slot is its first and last node's indices;
// index 0 is no node, so a zero slot is empty.
type node struct {
	fn   func()
	next int32
}

type slot struct{ head, tail int32 }

type eventQueue struct {
	last     Time // instant of the latest pop; no queued event is earlier
	n        int  // queued events, bottom and buckets
	slots    *[nSlots]slot
	occ      [nSlots / 64]uint64 // bit s%64 of occ[s/64] set while slot s holds events
	summary  uint64              // bit w set while occ[w] != 0
	nodes    []node              // the slots' arena; nodes[0] is unused
	free     int32               // head of the arena's free list, 0 if none
	buckets  [64]bucket          // buckets[b], b > slotBits: events with bits.Len64(at^last) == b
	nonEmpty uint64              // bit b set while buckets[b] holds events
	spare    []*chunk            // drained chunks awaiting reuse
}

func (q *eventQueue) len() int { return q.n }

// push queues e. Scheduling before last would file e below events that
// must fire after it; the kernel's clamping makes that unreachable, and a
// bug that reaches it must not pass silently.
func (q *eventQueue) push(e *event) {
	if e.at < q.last {
		panic("sim: event scheduled before the queue's current instant")
	}
	q.n++
	q.place(e)
}

// place files e in its slot if it shares last's block, else in the bucket
// its distance from last selects.
func (q *eventQueue) place(e *event) {
	x := uint64(e.at ^ q.last)
	if x < nSlots {
		q.appendSlot(int(e.at&slotMask), e.fn)
		return
	}
	b := bits.Len64(x)
	bk := &q.buckets[b]
	i := bk.n
	if i>>chunkShift == len(bk.chunks) {
		bk.chunks = append(bk.chunks, q.newChunk())
	}
	bk.chunks[i>>chunkShift][i&chunkMask] = *e
	bk.n++
	q.nonEmpty |= 1 << uint(b)
}

// appendSlot queues fn at the tail of slot s.
func (q *eventQueue) appendSlot(s int, fn func()) {
	if q.slots == nil {
		q.slots = new([nSlots]slot)
		q.nodes = make([]node, 1, 64)
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{fn: fn}
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{fn: fn})
	}
	sl := &q.slots[s]
	if sl.head == 0 {
		sl.head = i
		q.occ[s>>6] |= 1 << uint(s&63)
		q.summary |= 1 << uint(s>>6)
	} else {
		q.nodes[sl.tail].next = i
	}
	sl.tail = i
}

func (q *eventQueue) newChunk() *chunk {
	if n := len(q.spare); n > 0 {
		c := q.spare[n-1]
		q.spare = q.spare[:n-1]
		return c
	}
	return new(chunk)
}

// popUntil removes the minimum event into e if it fires at or before
// limit, and reports whether it did. It never advances last beyond limit:
// between two Runs the kernel's clock rests at the first one's deadline, and
// a pop that had peeked past it would leave last ahead of instants a
// caller may still schedule at.
func (q *eventQueue) popUntil(limit Time, e *event) bool {
	if q.summary != 0 {
		w := bits.TrailingZeros64(q.summary)
		s := w<<6 | bits.TrailingZeros64(q.occ[w])
		at := q.last&^slotMask | Time(s)
		if at > limit {
			return false
		}
		sl := &q.slots[s]
		i := sl.head
		nd := &q.nodes[i]
		q.last, e.at, e.fn, sl.head = at, at, nd.fn, nd.next
		*nd = node{next: q.free} // drop the callback's reference for the GC
		q.free = i
		if sl.head == 0 {
			if q.occ[w] &^= 1 << uint(s&63); q.occ[w] == 0 {
				q.summary &^= 1 << uint(w)
			}
		}
	} else if q.n == 0 || !q.refill(limit, e) {
		return false
	}
	q.n--
	return true
}

// refill empties the lowest non-empty bucket, if its minimum — the
// first-stored event of its earliest instant — fires at or before limit: the
// minimum goes to e, its instant becomes last, and the rest are re-filed
// against it — the events of its block into their slots, every later one
// into a bucket below the one it left. It runs only on an empty bottom.
func (q *eventQueue) refill(limit Time, e *event) bool {
	b := bits.TrailingZeros64(q.nonEmpty)
	bk := &q.buckets[b]
	chunks, n := bk.chunks, bk.n
	first := &chunks[0][0]
	for ci, c := range chunks {
		evs := used(c, ci, n)
		for i := range evs {
			if evs[i].at < first.at {
				first = &evs[i]
			}
		}
	}
	if first.at > limit {
		return false
	}
	*e = *first
	q.last = e.at
	q.nonEmpty &^= 1 << uint(b)
	// The first chunk stays with the bucket: a shallow queue's buckets fill
	// and drain a few events at a time and never visit the pool.
	bk.chunks, bk.n = chunks[:1], 0
	for ci, c := range chunks {
		evs := used(c, ci, n)
		for i := range evs {
			if &evs[i] != first {
				q.place(&evs[i])
			}
			evs[i].fn = nil // drop the reference for the GC
		}
		if ci > 0 {
			q.spare = append(q.spare, c)
		}
	}
	return true
}
