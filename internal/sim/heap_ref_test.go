package sim

// heapQueue is the event queue the kernel used before the radix queue: a
// value-typed 4-ary min-heap on before, kept as the reference side of the
// queue differential, the memory ceiling and the BenchmarkKernelQueue
// comparisons — the way metis_ref_test.go keeps the map partitioner. A heap
// does not keep an instant's events in scheduling order, so, like the kernel
// it came from, it stamps each event with its seq.
type heapQueue struct {
	heap []heapEvent
	seq  uint64
}

type heapEvent struct {
	event
	seq uint64 // heapQueue.seq when the event was pushed
}

// before is the (at, seq) order.
func (e *heapEvent) before(o *heapEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (q *heapQueue) len() int { return len(q.heap) }

func (q *heapQueue) push(e event) {
	q.seq++
	q.heap = append(q.heap, heapEvent{e, q.seq})
	q.siftUp(len(q.heap) - 1)
}

// pop removes and returns the minimum event.
func (q *heapQueue) pop() event {
	e := q.heap[0].event
	last := len(q.heap) - 1
	if last > 0 {
		q.heap[0] = q.heap[last]
	}
	q.heap[last] = heapEvent{} // drop the fn reference for the GC
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return e
}

// siftUp moves heap[i] toward the root.
func (q *heapQueue) siftUp(i int) {
	e := q.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		i = p
	}
	q.heap[i] = e
}

// siftDown moves heap[i] toward the leaves.
func (q *heapQueue) siftDown(i int) {
	n := len(q.heap)
	e := q.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if q.heap[c].before(&q.heap[best]) {
				best = c
			}
		}
		if !q.heap[best].before(&e) {
			break
		}
		q.heap[i] = q.heap[best]
		i = best
	}
	q.heap[i] = e
}
