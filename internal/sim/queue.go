package sim

import "math/bits"

// This file implements the kernel's event queue: a monotone radix queue on
// the fire time at, with a small heap for the current instant.
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
// Only bucket 0 needs seq: it is a binary heap on before. An event alone at
// its instant — most events of a shallow queue — never enters it.
//
// Buckets store their events inline (scheduling allocates nothing in steady
// state) in fixed-size chunks drawn from one pool shared by all buckets.
// Queue memory is what the queued events need, whichever bucket they are
// in: the periodic timers of a large fleet pass through a fresh high bucket
// every time the clock crosses a power of two, and a slice per bucket grown
// by append would give each of those its own fleet-sized array.
//
// Events owned by a Timer carry the id of a slot in the slot table, and
// every move of such an event records its new (bucket, index) there, so
// Timer.Stop and Timer.Reset remove their event in O(1). Plain After/At
// events skip all slot bookkeeping.

// event is one scheduled callback. Timer events leave fn nil and carry
// the owning slot id in tid; the slot holds the callback so it survives
// the fire and can be re-armed by Reset.
//
// at and seq form the order key (see before).
type event struct {
	at  Time
	seq uint64 // Kernel.seq when the event was scheduled
	tid int32  // owning timer slot, or noTimer
	fn  func()
}

const noTimer = int32(-1)

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

// timerSlot is the persistent half of a Timer: the callback plus where its
// pending event sits — index idx of bucket bkt, or notQueued. gen guards
// stale Timer handles after a slot is recycled.
type timerSlot struct {
	fn  func()
	idx int32
	gen uint32
	bkt int8
}

const notQueued = int8(-1)

// A chunk is the unit bucket storage is handed out in: 32 events, 1 KB —
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
	cur      []event    // bucket 0: the events of instant last, a binary heap on before
	buckets  [64]bucket // buckets[b], b >= 1: events with bits.Len64(at^last) == b
	nonEmpty uint64     // bit b set while buckets[b] holds events
	spare    []*chunk   // drained chunks awaiting reuse

	slots []timerSlot
	free  []int32 // recycled slot ids
}

func (q *eventQueue) len() int { return q.n }

// setPos records an event's location in its owning slot, if any.
func (q *eventQueue) setPos(tid int32, bkt, idx int) {
	if tid != noTimer {
		s := &q.slots[tid]
		s.bkt, s.idx = int8(bkt), int32(idx)
	}
}

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
		q.cur = append(q.cur, *e)
		q.siftUp(len(q.cur) - 1)
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
	q.setPos(e.tid, b, i)
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
		q.removeCur(0, e)
	} else if q.n == 0 || !q.refill(limit, e) {
		return false
	}
	q.n--
	if e.tid != noTimer {
		q.slots[e.tid].bkt = notQueued
	}
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

// remove deletes the pending event of timer slot tid (Timer.Stop, and the
// first half of a Reset).
func (q *eventQueue) remove(tid int32) {
	s := &q.slots[tid]
	b, i := int(s.bkt), int(s.idx)
	q.n--
	s.bkt = notQueued
	if b == 0 {
		var e event
		q.removeCur(i, &e)
		return
	}
	bk := &q.buckets[b]
	bk.n--
	tail := bk.chunks[bk.n>>chunkShift]
	if i != bk.n {
		e := tail[bk.n&chunkMask]
		bk.chunks[i>>chunkShift][i&chunkMask] = e
		q.setPos(e.tid, b, i)
	}
	tail[bk.n&chunkMask].fn = nil // drop the reference for the GC
	if bk.n&chunkMask == 0 && bk.n > 0 {
		bk.chunks = bk.chunks[:bk.n>>chunkShift]
		q.spare = append(q.spare, tail)
	}
	if bk.n == 0 {
		q.nonEmpty &^= 1 << uint(b)
	}
}

// removeCur removes cur[i] into e, restoring heap order.
func (q *eventQueue) removeCur(i int, e *event) {
	*e = q.cur[i]
	last := len(q.cur) - 1
	if i != last {
		q.cur[i] = q.cur[last]
	}
	q.cur[last].fn = nil // drop the reference for the GC
	q.cur = q.cur[:last]
	if i != last && !q.siftDown(i) {
		q.siftUp(i)
	}
}

// siftUp moves cur[i] toward the root.
func (q *eventQueue) siftUp(i int) {
	e := q.cur[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q.cur[p]) {
			break
		}
		q.cur[i] = q.cur[p]
		q.setPos(q.cur[i].tid, 0, i)
		i = p
	}
	q.cur[i] = e
	q.setPos(e.tid, 0, i)
}

// siftDown moves cur[i] toward the leaves; reports whether it moved.
func (q *eventQueue) siftDown(i int) bool {
	n := len(q.cur)
	e := q.cur[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.cur[c+1].before(&q.cur[c]) {
			c++
		}
		if !q.cur[c].before(&e) {
			break
		}
		q.cur[i] = q.cur[c]
		q.setPos(q.cur[i].tid, 0, i)
		i = c
	}
	q.cur[i] = e
	q.setPos(e.tid, 0, i)
	return i != start
}

// allocSlot takes a slot off the free list (or grows the table) and
// installs fn.
func (q *eventQueue) allocSlot(fn func()) int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		s := &q.slots[id]
		s.fn, s.bkt = fn, notQueued
		return id
	}
	q.slots = append(q.slots, timerSlot{fn: fn, bkt: notQueued})
	return int32(len(q.slots) - 1)
}

// freeSlot recycles a slot; the generation bump invalidates outstanding
// Timer handles.
func (q *eventQueue) freeSlot(id int32) {
	s := &q.slots[id]
	s.fn = nil
	s.bkt = notQueued
	s.gen++
	q.free = append(q.free, id)
}
