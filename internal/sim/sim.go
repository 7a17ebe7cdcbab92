// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of PLASMA's experiments run on virtual time. Every event carries an
// order key (at, seq) — firing time, then a kernel-wide scheduling counter —
// so two events scheduled for the same instant fire in a single well-defined
// order and every run is reproducible bit-for-bit from a single seed. The
// same-instant contract is:
//
//   - events of one instant fire in the order they were scheduled, whoever
//     scheduled them: a sender's same-instant messages arrive in send order;
//   - an event scheduled at its parent's instant (from inside an event
//     callback, for the same virtual time) fires after every event already
//     queued for that instant — children never overtake their parent's
//     cohort, because their seq is larger than anything queued before them;
//   - Timer.Reset is a fresh scheduling: resetting a pending timer to the
//     current instant moves it after previously queued same-instant
//     events, exactly as if it had been stopped and re-scheduled.
//
// The kernel never schedules into the past — every fire time is clamped to
// the clock, and the clock never moves backwards — and the key has no ties,
// so the event queue is a monotone radix queue on the fire time with a small
// heap for the current instant (see queue.go). Events are stored inline:
// scheduling one is a copy into a pooled chunk, not a boxed allocation, and
// periodic work can hold a reusable Timer (AfterFunc/Reset) so tick loops
// run allocation-free.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is an instant in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, mirroring time.Duration conventions.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Millis builds a Duration from a (possibly fractional) millisecond count.
func Millis(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Seconds reports d as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds reports t as a float64 number of seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// maxTime is the last representable instant: the limit of a pop that has none.
const maxTime = Time(1<<63 - 1)

// Kernel is a discrete-event simulator: one queue, one goroutine. The zero
// value is not usable; create one with New.
type Kernel struct {
	now Time
	q   eventQueue
	rng *rand.Rand
	seq uint64 // order key of the latest scheduling

	// Stopped is set by Stop; Run returns once it is observed.
	stopped bool

	fired uint64 // events fired since creation
	peak  int    // maximum queue depth observed
}

// New returns a kernel whose random stream is derived from seed.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// After schedules fn to run d from now. Negative delays fire immediately.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+Time(d), fn)
}

// At schedules fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t, noTimer, fn)
}

// schedule stamps the next seq on an event at time at and queues it: a
// plain callback fn, or the timer slot tid. This is the one place a fire
// time enters the queue, and it clamps it to now — a past instant, or a
// delay large enough to wrap the clock — which is what lets the queue assume
// no event is ever earlier than one it already popped.
func (k *Kernel) schedule(at Time, tid int32, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	k.q.push(&event{at: at, seq: k.seq, tid: tid, fn: fn})
	if n := k.q.len(); n > k.peak {
		k.peak = n
	}
}

// Timer is a reusable scheduled callback created by AfterFunc. Unlike a
// plain After event, a Timer occupies one slot in the kernel for its whole
// life: Reset re-queues the same slot and Stop cancels it. A timer that
// fires without being re-armed by Reset — from inside its own callback —
// releases its slot automatically; after that, Stop and Reset on the stale
// handle are no-ops returning false.
type Timer struct {
	k   *Kernel
	id  int32
	gen uint32
}

// AfterFunc schedules fn to run d from now and returns a Timer that can
// reschedule (Reset) or cancel (Stop) it. Tick loops that re-arm the timer
// from inside fn schedule each subsequent fire without any allocation,
// which is how Every and the cluster/EMR tick loops run.
func (k *Kernel) AfterFunc(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	id := k.q.allocSlot(fn)
	t := &Timer{k: k, id: id, gen: k.q.slots[id].gen}
	k.schedule(k.now+Time(d), id, nil)
	return t
}

func (t *Timer) live() bool {
	return t != nil && t.k != nil && t.k.q.slots[t.id].gen == t.gen
}

// Stop cancels the timer and releases its slot. It reports whether a
// pending fire was dequeued; false means the timer already fired (and was
// not re-armed) or was already stopped.
func (t *Timer) Stop() bool {
	if !t.live() {
		return false
	}
	pending := t.k.q.slots[t.id].bkt != notQueued
	if pending {
		t.k.q.remove(t.id)
	}
	t.k.q.freeSlot(t.id)
	return pending
}

// Reset reschedules the timer to fire d from now (negative d fires
// immediately). While the timer is pending its queued event is removed and
// queued anew; from inside the callback it re-arms the slot for another
// fire. Reset reports false on a released timer (already fired without
// re-arm, or stopped).
//
// Reset is a fresh scheduling with respect to same-instant ordering: the
// new event takes a fresh seq, so a Reset to the current instant fires after
// events that were already queued for that instant — exactly as if the timer
// had been stopped and scheduled anew; the differential tests in sim_test.go
// pin it.
func (t *Timer) Reset(d Duration) bool {
	if !t.live() {
		return false
	}
	if d < 0 {
		d = 0
	}
	k := t.k
	if k.q.slots[t.id].bkt != notQueued {
		k.q.remove(t.id)
	}
	k.schedule(k.now+Time(d), t.id, nil)
	return true
}

// Every schedules fn at now+d, then every d thereafter, until fn returns
// false or the simulation stops. The loop holds a single reusable timer
// slot, so each tick costs one queue push and no allocation.
//
// A non-positive period is floored to one Microsecond: period 0 used to
// reschedule at the same instant forever, livelocking RunUntilIdle.
func (k *Kernel) Every(d Duration, fn func() bool) {
	if d < Microsecond {
		d = Microsecond
	}
	var t *Timer
	t = k.AfterFunc(d, func() {
		if fn() {
			t.Reset(d)
		}
	})
}

// Step fires the next pending event, advancing the clock. It reports whether
// an event was fired; it fires nothing once Stop has been called.
func (k *Kernel) Step() bool {
	var e event
	if k.stopped || !k.q.popUntil(maxTime, &e) {
		return false
	}
	k.fire(&e)
	return true
}

// fire runs one popped event at its instant.
func (k *Kernel) fire(e *event) {
	k.now = e.at
	k.fired++
	if e.tid != noTimer {
		k.fireTimer(e.tid)
	} else {
		e.fn()
	}
}

// fireTimer runs a timer slot's callback and recycles the slot unless the
// callback re-armed it with Reset (or released it itself with Stop).
func (k *Kernel) fireTimer(id int32) {
	gen := k.q.slots[id].gen
	fn := k.q.slots[id].fn
	fn()
	// Re-index: fn may have created timers and grown the slot table.
	s := &k.q.slots[id]
	if s.gen != gen {
		return // the callback stopped its own timer; slot already released
	}
	if s.bkt == notQueued {
		k.q.freeSlot(id)
	}
}

// Run fires every event due at or before until, in order, and then rests the
// clock at until — unless Stop is called, which leaves the clock at the
// event that stopped the run rather than jumping ahead to the deadline. The
// clock never moves backwards: Run to an instant already passed fires
// nothing and leaves it where it is.
func (k *Kernel) Run(until Time) {
	var e event
	for !k.stopped && k.q.popUntil(until, &e) {
		k.fire(&e)
	}
	if !k.stopped && k.now < until {
		k.now = until
	}
}

// RunUntilIdle fires all pending events (including ones they schedule).
func (k *Kernel) RunUntilIdle() {
	for k.Step() {
	}
}

// Stop halts Run/RunUntilIdle after the current event.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.q.len() }

// Stats summarizes the kernel's lifetime effort, used by the benchmark
// harness to report event throughput and queue pressure per experiment.
type Stats struct {
	Fired     uint64 // events fired since creation
	PeakQueue int    // maximum queue depth ever observed
}

// Stats returns the kernel's counters.
func (k *Kernel) Stats() Stats { return Stats{Fired: k.fired, PeakQueue: k.peak} }
