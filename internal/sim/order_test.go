package sim

import (
	"math/rand"
	"testing"
)

// wideDelay draws a delay from every magnitude the queue has a bucket for:
// same-instant, the few-µs range the older differentials live in, and then
// milliseconds to hours, with the odd negative.
func wideDelay(rng *rand.Rand) Duration {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return Duration(rng.Int63n(17))
	case 2:
		return Duration(rng.Int63n(int64(Millisecond)))
	case 3:
		return Duration(rng.Int63n(int64(Second)))
	case 4:
		return Duration(rng.Int63n(int64(Minute)))
	case 5:
		return Duration(rng.Int63n(int64(180 * Minute)))
	case 6:
		return Duration(1) << uint(rng.Intn(40))
	}
	return -Duration(rng.Int63n(5))
}

func wideOp(rng *rand.Rand, kinds []opKind) op {
	return op{
		kind:  kinds[rng.Intn(len(kinds))],
		d:     wideDelay(rng),
		at:    Time(wideDelay(rng)),
		ticks: rng.Intn(64),
	}
}

// TestOrderDifferentialWide drives the kernel and the sorted reference
// with plans whose delays run from 0 µs to hours — plain events and Every
// loops, nested inside callbacks, and staged Run(until) calls with
// scheduling between them — and demands the same fires at the same instants
// with the same queue lengths throughout.
func TestOrderDifferentialWide(t *testing.T) {
	nested := []opKind{opAfter, opAfter, opAt, opAfter, opAfter, opEvery, opEvery}
	top := append([]opKind{opRun, opRun, opStep}, nested...)
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		p := program{budget: 1500, onFire: make([][]op, 1+rng.Intn(6))}
		for i := range p.onFire {
			for n := rng.Intn(4); n > 0; n-- {
				p.onFire[i] = append(p.onFire[i], wideOp(rng, nested))
			}
		}
		for n := 100 + rng.Intn(300); n > 0; n-- {
			p.top = append(p.top, wideOp(rng, top))
		}
		if d := p.diverge(); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestOrderAcrossPowerOfTwoBoundaries walks the clock over every 2^k from
// 2 µs to 2^62 with events a few µs either side of each boundary, each
// scheduling short-delay children that straddle it: the instants at which
// a radix queue's buckets turn over, and the far end of Time.
func TestOrderAcrossPowerOfTwoBoundaries(t *testing.T) {
	p := program{budget: 4000, onFire: [][]op{
		{{kind: opAfter, d: 1}, {kind: opAfter, d: 3}},
		{{kind: opAfter, d: 2}},
		{},
		{{kind: opEvery, d: 4, ticks: 2}, {kind: opAfter, d: 0}},
		{{kind: opEvery, d: 2, ticks: 1}},
	}}
	for k := uint(1); k <= 62; k++ {
		for off := Time(-3); off <= 3; off++ {
			p.top = append(p.top, op{kind: opAt, at: Time(1)<<k + off})
		}
		if k%8 == 0 {
			// Stage the run: stop between two boundaries, schedule more.
			p.top = append(p.top, op{kind: opRun, d: Duration(1) << (k - 1)})
		}
	}
	if d := p.diverge(); d != "" {
		t.Fatal(d)
	}
}

// TestEveryInEveryBucket parks an Every loop's first tick at each bit
// length of delay in turn — in the bottom slot of its microsecond for the
// first twelve, in bucket b above them — among plain events of its own
// instant and either side of it, lets it re-arm from there for a few
// periods, and compares the fire order with the sorted reference. The
// placement is asserted, not assumed.
func TestEveryInEveryBucket(t *testing.T) {
	for b := 1; b <= 62; b++ {
		at := Duration(1) << uint(b-1) // from a fresh queue, bits.Len64(at) == b
		k := New(1)
		k.Every(at, func() bool { return false })
		if b <= slotBits {
			s := int(at)
			if k.q.nonEmpty != 0 || k.q.summary != 1<<uint(s>>6) || k.q.occ[s>>6] != 1<<uint(s&63) {
				t.Fatalf("tick at %d parked in buckets %b, summary %b, occupancy word %b; want slot %d alone",
					at, k.q.nonEmpty, k.q.summary, k.q.occ[s>>6], s)
			}
		} else if k.q.nonEmpty != 1<<uint(b) || k.q.summary != 0 {
			t.Fatalf("tick at %d parked in buckets %b, summary %b; want bucket %d alone", at, k.q.nonEmpty, k.q.summary, b)
		}
		for ticks := 0; ticks < 4; ticks++ {
			p := program{budget: 64, top: []op{
				{kind: opAfter, d: at}, {kind: opAt, at: Time(at)}, {kind: opAfter, d: at + 1},
				{kind: opEvery, d: at, ticks: ticks}, // the parked tick, among events of its own instant
				{kind: opAfter, d: at}, {kind: opAfter, d: at - 1}, {kind: opAfter, d: 2 * at},
				{kind: opEvery, d: at / 2, ticks: ticks + 1},
			}, onFire: [][]op{{}}}
			if d := p.diverge(); d != "" {
				t.Fatalf("bucket %d, %d ticks: %s", b, ticks, d)
			}
		}
	}
}

// Regression: Run(until) with until already behind the clock, and the next
// event beyond until, used to set the clock back to until.
func TestRunToPastInstantLeavesClock(t *testing.T) {
	k := New(1)
	k.After(100, func() {})
	k.Run(50)
	k.Run(20)
	if k.Now() != 50 {
		t.Fatalf("Run(50); Run(20) left the clock at %d, want 50", k.Now())
	}
	var at Time = -1
	k.After(0, func() { at = k.Now() })
	k.Step()
	if at != 50 {
		t.Fatalf("After(0) following Run(20) fired at %d, want 50", at)
	}
	// Mid-instant: one of two events of instant 100 has fired.
	k.After(50, func() {})
	k.Step()
	k.Run(70)
	if k.Now() != 100 || k.Pending() != 1 {
		t.Fatalf("Run(70) at clock 100: clock %d pending %d, want 100 and 1", k.Now(), k.Pending())
	}
}

// TestPushBeforeLastPanics reaches the queue's precondition guard the only
// way it can be reached: by calling push directly.
func TestPushBeforeLastPanics(t *testing.T) {
	k := New(1)
	k.After(10, func() {})
	k.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("push before the queue's current instant did not panic")
		}
	}()
	k.q.push(&event{at: 9, fn: func() {}})
}

// TestPublicAPICannotScheduleIntoThePast walks every public way a fire time
// enters the queue with a time, delay or period that would put it behind the
// clock — past instants, negative delays, delays that would wrap Time — and
// the gap a finished Run(until) leaves between the clock and the next queued
// event. None may panic, fire out of order or move the clock back; a delay
// past the end of Time fires at maxTime.
func TestPublicAPICannotScheduleIntoThePast(t *testing.T) {
	const huge = Duration(maxTime)
	k := New(1)
	var fired []Time
	mark := func() { fired = append(fired, k.Now()) }
	once := func() bool { mark(); return false }

	k.After(1000, mark)
	k.Run(400) // the clock rests at 400; the next event is at 1000
	if k.Now() != 400 {
		t.Fatalf("clock after Run(400) = %d", k.Now())
	}
	// In the gap, ahead of everything queued and behind it.
	k.At(100, mark) // past: fires at 400
	k.At(401, mark)
	k.After(-7, mark)
	k.After(huge, mark) // 400 + huge is past the end of Time: saturates at maxTime
	k.Every(-1, once)   // floored to 1 µs: fires at 401
	k.Every(huge, once) // saturates like After
	k.At(maxTime, mark)
	k.RunUntilIdle()

	want := []Time{400, 400, 401, 401, 1000, maxTime, maxTime, maxTime}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

// Regression: After added the delay to the clock unchecked, so a fire time
// past the end of Time wrapped negative and was clamped to now — and an Every
// whose next tick overflowed re-fired at one instant forever, with Run never
// reaching its deadline. The fire time saturates at maxTime instead.
func TestFireTimePastEndOfTimeSaturates(t *testing.T) {
	k := New(1)
	k.Run(5)
	ticks := 0
	k.Every(Duration(maxTime-3), func() bool {
		ticks++
		return ticks < 1_000_000 // a bound, so a regression fails instead of hanging
	})
	k.Run(Time(Second))
	if ticks != 0 || k.Now() != Time(Second) || k.Pending() != 1 {
		t.Fatalf("Every(maxTime-3) from t=5: %d ticks before Run(1 s) returned at %d with %d pending; want 0 ticks, the clock at 1 s and the tick queued",
			ticks, k.Now(), k.Pending())
	}
}
