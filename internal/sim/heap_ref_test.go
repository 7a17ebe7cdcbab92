package sim

// heapQueue is the event queue the kernel used before the radix queue: a
// value-typed, indexed 4-ary min-heap on before, kept verbatim as the
// reference side of the queue differential, the memory ceiling and the
// BenchmarkKernelQueue comparisons — the way metis_ref_test.go keeps the map
// partitioner. Events owned by a timer carry a slot id, and every move
// updates the slot's heap position, so remove is O(log n).

// heapSlot is the persistent half of a Timer: the callback plus the
// current heap position of its pending event (noTimer when not queued).
// gen guards stale Timer handles after a slot is recycled.
type heapSlot struct {
	fn  func()
	pos int32
	gen uint32
}

type heapQueue struct {
	heap  []event
	slots []heapSlot
	free  []int32 // recycled slot ids
}

func (q *heapQueue) len() int { return len(q.heap) }

// setPos records heap[i]'s location in its owning slot, if any.
func (q *heapQueue) setPos(i int) {
	if t := q.heap[i].tid; t != noTimer {
		q.slots[t].pos = int32(i)
	}
}

func (q *heapQueue) push(e event) {
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// pop removes and returns the minimum event.
func (q *heapQueue) pop() event {
	e := q.heap[0]
	if e.tid != noTimer {
		q.slots[e.tid].pos = noTimer
	}
	last := len(q.heap) - 1
	if last > 0 {
		q.heap[0] = q.heap[last]
	}
	q.heap[last] = event{} // drop the fn reference for the GC
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return e
}

// remove deletes the event at heap index i (Timer.Stop).
func (q *heapQueue) remove(i int) {
	if t := q.heap[i].tid; t != noTimer {
		q.slots[t].pos = noTimer
	}
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
	}
	q.heap[last] = event{}
	q.heap = q.heap[:last]
	if i != last {
		q.fix(i)
	}
}

// fix restores heap order around index i after its event changed
// (Timer.Reset) or was replaced (remove).
func (q *heapQueue) fix(i int) {
	if !q.siftDown(i) {
		q.siftUp(i)
	}
}

// siftUp moves heap[i] toward the root; reports whether it moved.
func (q *heapQueue) siftUp(i int) bool {
	e := q.heap[i]
	start := i
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		q.setPos(i)
		i = p
	}
	q.heap[i] = e
	q.setPos(i)
	return i != start
}

// siftDown moves heap[i] toward the leaves; reports whether it moved.
func (q *heapQueue) siftDown(i int) bool {
	n := len(q.heap)
	e := q.heap[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.heap[c].before(&q.heap[best]) {
				best = c
			}
		}
		if !q.heap[best].before(&e) {
			break
		}
		q.heap[i] = q.heap[best]
		q.setPos(i)
		i = best
	}
	q.heap[i] = e
	q.setPos(i)
	return i != start
}

// allocSlot takes a slot off the free list (or grows the table) and
// installs fn.
func (q *heapQueue) allocSlot(fn func()) int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		s := &q.slots[id]
		s.fn, s.pos = fn, noTimer
		return id
	}
	q.slots = append(q.slots, heapSlot{fn: fn, pos: noTimer})
	return int32(len(q.slots) - 1)
}

// freeSlot recycles a slot; the generation bump invalidates outstanding
// Timer handles.
func (q *heapQueue) freeSlot(id int32) {
	s := &q.slots[id]
	s.fn = nil
	s.pos = noTimer
	s.gen++
	q.free = append(q.free, id)
}
