package sim

import "math/bits"

// This file implements the kernel's event queue: a monotone radix queue on
// the fire time at, with a FIFO for the current instant.
//
// The kernel never schedules into the past (every at is clamped to now) and
// the order key (at, seq) has no ties — see before — so the pop sequence is
// fixed by the key alone and the queue is free to exploit monotonicity.
// last is the instant of the latest refill; every queued event has
// at >= last and sits in bucket bits.Len64(at ^ last): bucket 0 holds the
// events of instant last itself, bucket b >= 1 those whose highest bit
// differing from last is bit b-1. A higher bucket holds strictly later
// events than a lower one, so the next event is always in the lowest
// non-empty bucket. When bucket 0 runs dry, refill empties that bucket: its
// minimum is the event to fire, that event's instant becomes last, and the
// rest are re-filed against it. Each lands strictly lower, and events in
// higher buckets keep their index because last changed only below their
// differing bit. An event is therefore moved at most once per
// bit of its delay, in sequential sweeps, instead of being compared down a
// heap whose every level is a cache miss at fleet scale. 64 buckets is the
// width of Time, not a setting.
//
// Only bucket 0 needs seq, and it gets it for free: it is a FIFO already in
// seq order. A push at instant last appends, and its seq is larger than any
// queued one. The rest of an instant's events come from one refill, in the
// order its bucket stored them, and that too is seq order: the bucket index
// is a function of at and last, so the events of one instant always share a
// bucket, and they enter it only by appends in scheduling order or all
// together, in their stored order, from the bucket above. An event alone at
// its instant — most events of a shallow queue — goes from its bucket
// straight to the kernel and never enters the FIFO.
//
// Buckets store their events inline (scheduling allocates nothing in steady
// state) in fixed-size chunks drawn from one pool shared by all buckets.
// Queue memory is what the queued events need, whichever bucket they are
// in: the periodic ticks of a large fleet pass through a fresh high bucket
// every time the clock crosses a power of two, and a slice per bucket grown
// by append would give each of those its own fleet-sized array.
//
// Nothing is ever removed from the queue but its minimum: an event, once
// scheduled, fires.

// event is one scheduled callback, 24 bytes: at and seq form the order key
// (see before).
type event struct {
	at  Time
	seq uint64 // Kernel.seq when the event was scheduled
	fn  func()
}

// before is the queue's strict total order and the kernel's same-instant
// ordering contract: fire time, then scheduling order. seq is unique per
// kernel — every scheduling bumps it — so ties cannot exist and any correct
// priority queue pops events in exactly one order. It also makes the order
// causal: an event scheduled at its parent's instant is stamped after
// everything already queued, so the pop sequence is monotone in the key.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// A chunk is the unit bucket storage is handed out in: 32 events, 768 B —
// small enough that the thirty-odd buckets a short-lived kernel touches cost
// it less than the heap's doubling did, large enough that a refill streams.
const (
	chunkShift = 5
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type chunk [chunkLen]event

// bucket is an unordered bag of events; every chunk but the last is full.
type bucket struct {
	chunks []*chunk
	n      int
}

// used is the filled part of c, the ci-th chunk of a bucket holding n events.
func used(c *chunk, ci, n int) []event { return c[:min(chunkLen, n-ci<<chunkShift)] }

type eventQueue struct {
	last     Time       // instant of the latest refill; no queued event is earlier
	n        int        // queued events, all buckets
	cur      []event    // bucket 0: cur[head:] are the events of instant last, in seq order
	head     int        // cur[:head] have fired
	buckets  [64]bucket // buckets[b], b >= 1: events with bits.Len64(at^last) == b
	nonEmpty uint64     // bit b set while buckets[b] holds events
	spare    []*chunk   // drained chunks awaiting reuse
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

// place files e in the bucket its distance from last selects.
func (q *eventQueue) place(e *event) {
	b := bits.Len64(uint64(e.at ^ q.last))
	if b == 0 {
		// A full FIFO at least half fired slides to the front rather than
		// grow, so a long zero-delay chain holds its live events only.
		if n := len(q.cur); n == cap(q.cur) && q.head > 0 && q.head >= n/2 {
			live := copy(q.cur, q.cur[q.head:])
			clear(q.cur[live:])
			q.cur, q.head = q.cur[:live], 0
		}
		q.cur = append(q.cur, *e)
		return
	}
	bk := &q.buckets[b]
	i := bk.n
	if i>>chunkShift == len(bk.chunks) {
		bk.chunks = append(bk.chunks, q.newChunk())
	}
	bk.chunks[i>>chunkShift][i&chunkMask] = *e
	bk.n++
	q.nonEmpty |= 1 << uint(b)
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
// a refill that had peeked past it would leave last ahead of instants a
// caller may still schedule at.
func (q *eventQueue) popUntil(limit Time, e *event) bool {
	if len(q.cur) > 0 {
		if q.last > limit {
			return false
		}
		q.popCur(e)
	} else if q.n == 0 || !q.refill(limit, e) {
		return false
	}
	q.n--
	return true
}

// refill empties the lowest non-empty bucket, if its minimum fires at or
// before limit: the minimum goes to e, its instant becomes last, and the
// rest are re-filed against it — the other events of that instant into
// bucket 0, every later one into a bucket below the one it left.
func (q *eventQueue) refill(limit Time, e *event) bool {
	b := bits.TrailingZeros64(q.nonEmpty)
	bk := &q.buckets[b]
	chunks, n := bk.chunks, bk.n
	first := &chunks[0][0]
	for ci, c := range chunks {
		evs := used(c, ci, n)
		for i := range evs {
			if evs[i].before(first) {
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

// popCur removes the head of cur, the current instant's next event, into
// e. A drained FIFO restarts at the front of its array.
func (q *eventQueue) popCur(e *event) {
	*e = q.cur[q.head]
	q.cur[q.head].fn = nil // drop the reference for the GC
	q.head++
	if q.head == len(q.cur) {
		q.cur, q.head = q.cur[:0], 0
	}
}
