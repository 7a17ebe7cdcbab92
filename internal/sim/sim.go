// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of PLASMA's experiments run on virtual time. Every event has an order
// key (at, seq) — firing time, then scheduling order — so two events
// scheduled for the same instant fire in a single well-defined order and
// every run is reproducible bit-for-bit from a single seed. The same-instant
// contract is:
//
//   - events of one instant fire in the order they were scheduled, whoever
//     scheduled them: a sender's same-instant messages arrive in send order;
//   - an event scheduled at its parent's instant (from inside an event
//     callback, for the same virtual time) fires after every event already
//     queued for that instant — children never overtake their parent's
//     cohort, because they are scheduled after everything queued before them;
//   - an Every loop's re-arm is a fresh scheduling, made after its callback
//     returns: the next tick fires after every event queued for that instant
//     before the re-arm, the callback's own children included.
//
// The kernel never schedules into the past — every fire time is clamped to
// the clock, a delay past the end of Time saturates at its last instant, and
// the clock never moves backwards — and the key has no ties, so the event
// queue is a monotone radix queue on the fire time whose bottom level holds
// one FIFO per microsecond of the clock's 4,096 µs block (see queue.go). The
// queue keeps each instant's events in scheduling order, so seq is an
// event's position, not a stored field: an event is two words, its fire time
// and its callback, stored inline — scheduling one is a copy into a pooled
// chunk or arena node, not a boxed allocation — and periodic work
// re-schedules one callback with After, so tick loops run allocation-free.
// There is one kind of event and nothing cancels it.
package sim

import (
	"math/rand"
	"strconv"
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
	var b [32]byte
	return string(d.AppendTo(b[:0]))
}

// AppendTo appends d as String writes it: "1.500s", "12.345ms", "250µs".
func (d Duration) AppendTo(dst []byte) []byte {
	switch {
	case d >= Second:
		return append(strconv.AppendFloat(dst, d.Seconds(), 'f', 3, 64), 's')
	case d >= Millisecond:
		return append(strconv.AppendFloat(dst, float64(d)/float64(Millisecond), 'f', 3, 64), "ms"...)
	default:
		return append(strconv.AppendInt(dst, int64(d), 10), "µs"...)
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

// After schedules fn to run d from now. Negative delays fire immediately;
// a delay past the end of Time fires at its last instant.
func (k *Kernel) After(d Duration, fn func()) {
	d = max(d, 0)
	t := maxTime
	if Time(d) <= maxTime-k.now {
		t = k.now + Time(d)
	}
	k.At(t, fn)
}

// At schedules fn at absolute virtual time t. This is the one place a fire
// time enters the queue, and it clamps a past instant to now, which is what
// lets the queue assume no event is ever earlier than one it already popped.
// The event's place among those of its instant is its scheduling order.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.q.push(&event{at: t, fn: fn})
	if n := k.q.len(); n > k.peak {
		k.peak = n
	}
}

// Every schedules fn at now+d, then every d thereafter, until fn returns
// false. Each tick re-schedules the same callback with After once fn has
// returned, so it costs one queue push and no allocation.
//
// A non-positive period is floored to one Microsecond: period 0 used to
// reschedule at the same instant forever, livelocking RunUntilIdle.
func (k *Kernel) Every(d Duration, fn func() bool) {
	if d < Microsecond {
		d = Microsecond
	}
	var tick func()
	tick = func() {
		if fn() {
			k.After(d, tick)
		}
	}
	k.After(d, tick)
}

// Step fires the next pending event, advancing the clock. It reports whether
// an event was fired.
func (k *Kernel) Step() bool {
	var e event
	if !k.q.popUntil(maxTime, &e) {
		return false
	}
	k.fire(&e)
	return true
}

// fire runs one popped event at its instant.
func (k *Kernel) fire(e *event) {
	k.now = e.at
	k.fired++
	e.fn()
}

// Run fires every event due at or before until, in order, and then rests the
// clock at until. The clock never moves backwards: Run to an instant already
// passed fires nothing and leaves it where it is.
func (k *Kernel) Run(until Time) {
	var e event
	for k.q.popUntil(until, &e) {
		k.fire(&e)
	}
	if k.now < until {
		k.now = until
	}
}

// RunUntilIdle fires all pending events (including ones they schedule).
func (k *Kernel) RunUntilIdle() {
	for k.Step() {
	}
}

// Stats summarizes the kernel's lifetime effort, used by the benchmark
// harness to report event throughput and queue pressure per experiment.
type Stats struct {
	Fired     uint64 // events fired since creation
	PeakQueue int    // maximum queue depth ever observed
}

// Stats returns the kernel's counters.
func (k *Kernel) Stats() Stats { return Stats{Fired: k.fired, PeakQueue: k.peak} }
