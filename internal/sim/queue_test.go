package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// refKernel reimplements the kernel's first event queue — a container/heap of
// boxed *refEvent — with identical (at, seq) semantics. The two differential
// tests below drive it and the kernel with the same schedule and demand
// identical fire orders; the alloc test pins the boxed implementation's
// per-event allocation as the ceiling the kernel's queue must beat. (The
// reference with Every loops and staged runs, and plans that reach every
// bucket of the radix queue, are in order_ref_test.go and order_test.go.)
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refKernel struct {
	now    Time
	seq    uint64
	events refHeap
}

func (k *refKernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	t := k.now + Time(d)
	if t < k.now {
		t = k.now
	}
	k.seq++
	heap.Push(&k.events, &refEvent{at: t, seq: k.seq, fn: fn})
}

func (k *refKernel) RunUntilIdle() {
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(*refEvent)
		k.now = e.at
		e.fn()
	}
}

// scheduler abstracts the two kernels so one driver exercises both.
type scheduler interface {
	After(d Duration, fn func())
	RunUntilIdle()
}

// driveSchedule runs a deterministic workload on s: an initial burst of
// events whose callbacks recursively schedule children according to the
// precomputed plan. It returns the order in which event ids fired.
type schedulePlan struct {
	initial []Duration   // delays of root events
	childOf [][]Duration // childOf[id]: delays of events scheduled when id fires
}

func driveSchedule(s scheduler, plan schedulePlan) []int {
	var order []int
	next := len(plan.initial)
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			order = append(order, id)
			if id < len(plan.childOf) {
				for _, d := range plan.childOf[id] {
					child := next
					next++
					s.After(d, fire(child))
				}
			}
		}
	}
	for id, d := range plan.initial {
		s.After(d, fire(id))
	}
	s.RunUntilIdle()
	return order
}

// makePlan builds a randomized schedule with heavy same-instant collisions
// (small delay range) and nested scheduling, all decided up front so both
// kernels see the identical workload.
func makePlan(rng *rand.Rand, roots int) schedulePlan {
	p := schedulePlan{initial: make([]Duration, roots)}
	for i := range p.initial {
		// Delay range of 17µs over hundreds of events forces many (at)
		// ties, so the seq tiebreak is what the test really pins down.
		p.initial[i] = Duration(rng.Int63n(17))
	}
	total := roots * 3
	p.childOf = make([][]Duration, total)
	for i := 0; i < total; i++ {
		if rng.Intn(3) == 0 {
			kids := make([]Duration, rng.Intn(3))
			for j := range kids {
				kids[j] = Duration(rng.Int63n(11))
			}
			p.childOf[i] = kids
		}
	}
	return p
}

// TestDifferentialFireOrder checks the 4-ary indexed value heap fires
// events in exactly the (at, seq) order of the old container/heap kernel,
// across many seeded random schedules.
func TestDifferentialFireOrder(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		plan := makePlan(rng, 150+rng.Intn(350))
		got := driveSchedule(New(1), plan)
		want := driveSchedule(&refKernel{}, plan)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at event %d: got id %d, reference id %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialWithTimers mixes periodic traffic — Every loops that tick
// among the plan's events and record nothing — into a plain event stream and
// checks the plain events still fire in reference order.
func TestDifferentialWithTimers(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		plan := makePlan(rng, 200)
		want := driveSchedule(&refKernel{}, plan)

		k := New(1)
		for i := 0; i < 50; i++ {
			left := i % 3
			k.Every(Duration(rng.Int63n(17)), func() bool { left--; return left >= 0 })
		}
		got := driveSchedule(k, plan)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d plan events, reference fired %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestHeapAllocsReduced asserts the kernel's inline-event queue schedules and
// fires events with fewer Go-heap allocations than the boxed reference — and
// in absolute terms near zero amortized allocs per event (a bucket's first
// chunk only).
func TestHeapAllocsReduced(t *testing.T) {
	const events = 2000
	fn := func() {}

	k := New(1)
	newAllocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < events; i++ {
			k.After(Duration(i%97), fn)
		}
		k.RunUntilIdle()
	})

	rk := &refKernel{}
	refAllocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < events; i++ {
			rk.After(Duration(i%97), fn)
		}
		rk.RunUntilIdle()
	})

	if newAllocs > refAllocs {
		t.Fatalf("inline queue allocates more than boxed reference: %.1f > %.1f allocs per %d events",
			newAllocs, refAllocs, events)
	}
	// The boxed kernel allocated ~1 event box per event; storing events
	// inline must be at least 10x better amortized.
	if newAllocs > events/10 {
		t.Fatalf("inline queue allocs = %.1f per %d events; want near zero", newAllocs, events)
	}
}

// TestEventIs24Bytes pins the inline event at three words — (at, seq) and
// the callback — so a chunk of 32 stays 768 B.
func TestEventIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
}

// BenchmarkKernelSchedule measures raw schedule+fire throughput in bursts of
// 1024 events spread over a millisecond: the headline number behind
// BENCH_*.json's events_per_sec. BenchmarkKernelQueue (queue_bench_test.go)
// holds the standing-queue regimes.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	fn := func() {}
	k := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Duration(i%977), fn)
		if i%1024 == 1023 {
			k.RunUntilIdle()
		}
	}
	k.RunUntilIdle()
}

// BenchmarkKernelScheduleBoxedRef is the same workload on the boxed
// container/heap reference, kept for comparison.
func BenchmarkKernelScheduleBoxedRef(b *testing.B) {
	b.ReportAllocs()
	fn := func() {}
	k := &refKernel{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Duration(i%977), fn)
		if i%1024 == 1023 {
			k.RunUntilIdle()
		}
	}
	k.RunUntilIdle()
}

// BenchmarkEveryTick measures periodic ticks (the EMR's period loop shape):
// each tick is one After from inside the callback — one queue push, no
// allocation.
func BenchmarkEveryTick(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	n := 0
	k.Every(Millisecond, func() bool {
		n++
		return n < b.N
	})
	k.RunUntilIdle()
}

// TestRefillBatchInSeqOrder schedules 400 events at one far instant from 400
// earlier instants spread over every power of two below it, each among
// neighbours either side of the far instant, so the group is re-filed down
// through bucket after bucket and reaches the current instant as one refill
// batch of 399 events. The FIFO keeps no order of its own: the batch must
// pop in scheduling order as the refill filed it.
func TestRefillBatchInSeqOrder(t *testing.T) {
	const far, group = Time(1)<<22 + 7, 400
	k := New(1)
	var fired []int
	scheduled, batch := 0, 0
	for i := 0; i < group; i++ {
		k.At(Time(1)<<(i%22)+Time(i), func() {
			id := scheduled
			scheduled++
			k.At(far, func() {
				if len(fired) == 0 {
					batch = len(k.q.cur) - k.q.head
				}
				fired = append(fired, id)
			})
			k.At(far-Time(1+i%5), func() {})
			k.At(far+Time(1+i%3), func() {})
		})
	}
	k.RunUntilIdle()
	if batch != group-1 {
		t.Fatalf("refill at the far instant filed %d events into the FIFO, want %d", batch, group-1)
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("far-instant event %d fired in place %d; the instant must fire in scheduling order", id, i)
		}
	}
	if len(fired) != group {
		t.Fatalf("%d far-instant events fired, want %d", len(fired), group)
	}
}

// TestFIFOBoundedOnZeroDelayChain runs sixteen zero-delay chains, a million
// events in all, at one instant. The FIFO holds sixteen live events at a
// time; sliding to the front when full and half fired keeps its array at
// most 64 events instead of one slot per event ever fired.
func TestFIFOBoundedOnZeroDelayChain(t *testing.T) {
	const chains, events = 16, 1_000_000
	k := New(1)
	fired, peak := 0, 0
	for c := 0; c < chains; c++ {
		var link func()
		link = func() {
			if fired++; fired+chains <= events {
				k.After(0, link)
			}
			peak = max(peak, cap(k.q.cur))
		}
		k.After(0, link)
	}
	k.RunUntilIdle()
	if fired != events || k.Now() != 0 {
		t.Fatalf("fired %d events, clock at %d; want %d at instant 0", fired, k.Now(), events)
	}
	if peak > 64 {
		t.Fatalf("current-instant FIFO grew to %d events for %d live; want at most 64", peak, chains)
	}
}
