package sim

import (
	"math/rand"
	"strings"
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
		kind: kinds[rng.Intn(len(kinds))],
		d:    wideDelay(rng),
		at:   Time(wideDelay(rng)),
		tm:   rng.Intn(64),
	}
}

// TestOrderDifferentialWide drives the kernel and the sorted reference
// with plans whose delays run from 0 µs to hours — plain and timer events,
// Stop/Reset/re-arm churn nested inside callbacks, and staged Run(until)
// calls with scheduling between them — and demands the same fires at the
// same instants with the same queue lengths throughout.
func TestOrderDifferentialWide(t *testing.T) {
	nested := []opKind{opAfter, opAfter, opAt, opAfter, opAfter, opTimer, opStop, opReset, opRearm}
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
		{{kind: opTimer, d: 4}, {kind: opAfter, d: 0}},
		{{kind: opRearm, d: 2}},
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

// TestTimerStopResetInEveryBucket parks a timer in each bucket of the queue
// in turn — and in the current-instant heap — among plain events, then
// Stops it or Resets it down, up or in place, and compares the fire order
// with the sorted reference. The placement is asserted, not assumed.
func TestTimerStopResetInEveryBucket(t *testing.T) {
	for b := 1; b <= 62; b++ {
		at := Duration(1) << uint(b-1) // from a fresh queue, bucket b
		k := New(1)
		tm := k.AfterFunc(at, func() {})
		if got := int(k.q.slots[tm.id].bkt); got != b {
			t.Fatalf("timer at %d parked in bucket %d, want %d", at, got, b)
		}
		for _, reset := range []Duration{-1, 0, 1, at / 2, at, at + 1, 2*at + 1} {
			p := program{budget: 64, top: []op{
				{kind: opAfter, d: at}, {kind: opAt, at: Time(at)}, {kind: opAfter, d: at + 1},
				{kind: opTimer, d: at}, // the parked timer, among events of its own instant
				{kind: opAfter, d: at}, {kind: opAfter, d: at - 1}, {kind: opTimer, d: at},
			}, onFire: [][]op{{}}}
			if reset < 0 {
				p.top = append(p.top, op{kind: opStop, tm: 0}, op{kind: opReset, tm: 0, d: 1})
			} else {
				p.top = append(p.top, op{kind: opReset, tm: 0, d: reset}, op{kind: opStop, tm: 1})
			}
			if d := p.diverge(); d != "" {
				t.Fatalf("bucket %d, reset %d: %s", b, reset, d)
			}
		}
	}

	// The current-instant heap: five events share instant 100; the first to
	// fire stops one queued timer of that instant and resets another.
	k := New(1)
	var log []string
	var stopped, moved *Timer
	k.After(100, func() {
		for _, tm := range []*Timer{stopped, moved} {
			if got := k.q.slots[tm.id].bkt; got != 0 {
				t.Fatalf("same-instant timer sits in bucket %d, want the current-instant heap", got)
			}
		}
		if !stopped.Stop() || !moved.Reset(0) {
			t.Fatal("Stop/Reset of a timer queued for the current instant reported false")
		}
	})
	stopped = k.AfterFunc(100, func() { log = append(log, "stopped") })
	k.After(100, func() { log = append(log, "a") })
	moved = k.AfterFunc(100, func() { log = append(log, "moved") })
	k.After(100, func() { log = append(log, "b") })
	k.RunUntilIdle()
	// Reset(0) from inside an event of instant 100 is a fresh scheduling:
	// after every event already queued for instant 100.
	if got, want := strings.Join(log, " "), "a b moved"; got != want {
		t.Fatalf("fire order %q, want %q", got, want)
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
	k.q.push(&event{at: 9, tid: noTimer, fn: func() {}})
}

// TestPublicAPICannotScheduleIntoThePast walks every public way a fire time
// enters the queue with a time or delay that would put it behind the clock —
// past instants, negative delays, delays that wrap Time — and the gap a
// finished Run(until) leaves between the clock and the next queued event.
// None may panic, fire out of order or move the clock back.
func TestPublicAPICannotScheduleIntoThePast(t *testing.T) {
	const huge = Duration(maxTime)
	k := New(1)
	var fired []Time
	mark := func() { fired = append(fired, k.Now()) }

	k.After(1000, mark)
	k.Run(400) // the clock rests at 400; the next event is at 1000
	if k.Now() != 400 {
		t.Fatalf("clock after Run(400) = %d", k.Now())
	}
	// In the gap, ahead of everything queued and behind it.
	k.At(100, mark) // past: fires at 400
	k.At(401, mark)
	k.After(-7, mark)
	k.After(huge, mark) // 400 + huge wraps: clamped to 400
	tm := k.AfterFunc(-1, mark)
	tm.Reset(-1)
	late := k.AfterFunc(huge, mark)
	late.Reset(huge)
	k.At(maxTime, mark)
	k.RunUntilIdle()

	want := []Time{400, 400, 400, 400, 400, 401, 1000, maxTime}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}
