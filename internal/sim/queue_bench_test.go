package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkKernelQueue measures schedule+fire cost per event at the queue
// regimes the repository benchmark's workloads run in. Each sub-benchmark
// builds its standing population outside the timer and then fires b.N
// events, every one of which schedules its successor, so queue depth holds
// steady and ns/op is the whole cost of one event through the kernel. They
// use only the Kernel API, so the same file measures any queue behind it.
func BenchmarkKernelQueue(b *testing.B) {
	b.Run("shallow", func(b *testing.B) { stepN(b, shallowWorld()) })
	b.Run("deep", func(b *testing.B) { stepN(b, deepWorld(deepWorkers)) })
	b.Run("tick", func(b *testing.B) { stepN(b, tickWorld()) })
}

func stepN(b *testing.B, k *Kernel) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("queue drained")
		}
	}
}

// lcg is a tiny deterministic delay source: the worlds below must not
// spend their time in math/rand.
type lcg uint64

func (r *lcg) next(n uint64) uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r>>33) % n
}

// shallowWorld is media_bell's queue: ~350 closed-loop clients, almost all
// parked on a 200 ms think timer, each request a chain of eight hops with
// network- and CPU-sized delays (60–900 µs). Nearly every instant holds one
// event.
func shallowWorld() *Kernel {
	k := New(1)
	const clients, hops = 350, 8
	rng := lcg(1)
	for c := 0; c < clients; c++ {
		left := 0
		var hop func()
		hop = func() {
			if left == 0 {
				left = hops
				k.After(200*Millisecond, hop)
				return
			}
			left--
			k.After(Duration(60+rng.next(840)), hop)
		}
		k.After(Duration(rng.next(uint64(200*Millisecond))), hop)
	}
	return k
}

// deepWorkers is fleet_control's Worker count; with its probes and tick
// loops the benchmark's queue peaks at 133k events.
const deepWorkers = 131072

// deepWorld is fleet_control's queue: workers Workers, each on a 2 s
// self-message cycle kicked off on a millisecond grid — a network hop, 6 ms
// of CPU, then the re-arm — so the queue stands workers deep and its
// instants hold tens of events.
func deepWorld(workers int) *Kernel {
	k := New(1)
	const cycle, cpu = 2 * Second, 6 * Millisecond
	rng := lcg(1)
	for w := 0; w < workers; w++ {
		var net Duration
		var arrive, done, send func()
		arrive = func() { k.After(cpu, done) }
		done = func() {
			net = Duration(100 + rng.next(200))
			k.After(cycle-cpu-net, send)
		}
		send = func() { k.After(net, arrive) }
		k.At(Time(w%2000+1)*Time(Millisecond), arrive)
	}
	return k
}

// tickWorld is the control plane's shape (and stream_shift_chaos's): a few
// hundred Every loops at mixed periods, each fire re-scheduling itself with
// After from inside its own callback.
func tickWorld() *Kernel {
	k := New(1)
	for i := 0; i < 200; i++ {
		k.Every(Duration(250+37*i)*Microsecond, func() bool { return true })
	}
	for i := 0; i < 16; i++ {
		k.Every(Duration(100+i)*Millisecond, func() bool { return true })
	}
	return k
}

// crowdWorld is an instant-heavy queue: n loops on one 1 ms period, so every
// instant holds n events and each reaches the kernel through one refill
// batch and the current-instant FIFO.
func crowdWorld(n int) *Kernel {
	k := New(1)
	for i := 0; i < n; i++ {
		var loop func()
		loop = func() { k.After(Millisecond, loop) }
		k.After(Millisecond, loop)
	}
	return k
}

// TestQueueSteadyStateAllocs pins zero allocations per event once a regime's
// buckets have their chunks and the FIFO its array: events are stored inline,
// chunks recycle and the FIFO restarts at its front every instant.
func TestQueueSteadyStateAllocs(t *testing.T) {
	worlds := []struct {
		name string
		k    *Kernel
	}{{"shallow", shallowWorld()}, {"deep", deepWorld(4096)}, {"tick", tickWorld()}, {"crowd", crowdWorld(2048)}}
	for _, w := range worlds {
		for i := 0; i < 200000; i++ {
			w.k.Step()
		}
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 10000; i++ {
				w.k.Step()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per 10,000 events in steady state, want 0", w.name, allocs)
		}
	}
}

// TestQueueMemoryAtFleetScale holds the radix queue's memory at
// fleet_control's depth to 1.25x the heap's, retained and allocated in all.
// Six 2 s cycles take the clock over 2^21, 2^22 and 2^23 µs, so the whole
// population passes through three fresh high buckets — where a slice per
// bucket grown by append allocated half as much again as the heap.
func TestQueueMemoryAtFleetScale(t *testing.T) {
	const events, cycles = 133000, 6
	measure := func(push func(*event), pop func(*event)) (retained, total float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn := func() {}
		var cnt uint64
		var e event
		for i := 0; i < events; i++ {
			cnt++
			e = event{at: Time(i%2000+1)*Time(Millisecond) + Time(i%977), seq: cnt, fn: fn}
			push(&e)
		}
		for i := 0; i < cycles*events; i++ {
			pop(&e)
			cnt++
			e.at, e.seq = e.at+Time(2*Second), cnt
			push(&e)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return float64(after.HeapAlloc) - float64(before.HeapAlloc), float64(after.TotalAlloc - before.TotalAlloc)
	}
	q := new(eventQueue)
	radixKept, radixTotal := measure(q.push, func(e *event) { q.popUntil(maxTime, e) })
	h := new(heapQueue)
	heapKept, heapTotal := measure(func(e *event) { h.push(*e) }, func(e *event) { *e = h.pop() })
	if q.len() != events || h.len() != events {
		t.Fatalf("queues hold %d and %d events, want %d", q.len(), h.len(), events)
	}
	const mb = 1 << 20
	t.Logf("retained: radix %.1f MB, heap %.1f MB; allocated: radix %.1f MB, heap %.1f MB",
		radixKept/mb, heapKept/mb, radixTotal/mb, heapTotal/mb)
	if radixKept > 1.25*heapKept {
		t.Errorf("radix queue retains %.1f MB at %d events, over 1.25x the heap's %.1f MB", radixKept/mb, events, heapKept/mb)
	}
	if radixTotal > 1.25*heapTotal {
		t.Errorf("radix queue allocated %.1f MB over %d cycles, over 1.25x the heap's %.1f MB", radixTotal/mb, cycles, heapTotal/mb)
	}
}

// TestQueueDifferentialAgainstHeap drives the radix queue and the 4-ary heap
// it replaced with one monotone stream of pushes and limited and unlimited
// pops, and demands the same event from both at every pop.
func TestQueueDifferentialAgainstHeap(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		var (
			q   eventQueue
			h   heapQueue
			now Time
			cnt uint64
		)
		pop := func(limit Time) {
			var got event
			ok := q.popUntil(limit, &got)
			if want := h.len() > 0 && h.heap[0].at <= limit; ok != want {
				t.Fatalf("trial %d: popUntil(%d) = %v, heap says %v", trial, limit, ok, want)
			}
			if !ok {
				return
			}
			want := h.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: popped %+v, heap popped %+v", trial, got, want)
			}
			now = got.at
		}
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				cnt++
				e := event{at: now + Time(wideDelay(rng)), seq: cnt}
				if e.at < now {
					e.at = now
				}
				q.push(&e)
				h.push(e)
			case r < 8:
				pop(maxTime)
			default:
				pop(now + Time(rng.Int63n(int64(Millisecond))))
			}
			if q.len() != h.len() {
				t.Fatalf("trial %d step %d: radix holds %d events, heap %d", trial, step, q.len(), h.len())
			}
		}
	}
}
