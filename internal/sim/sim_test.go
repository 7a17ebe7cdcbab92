package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := New(1)
	if k.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", k.Now())
	}
}

func TestAfterFiresInOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.After(30*Millisecond, func() { got = append(got, 3) })
	k.After(10*Millisecond, func() { got = append(got, 1) })
	k.After(20*Millisecond, func() { got = append(got, 2) })
	k.RunUntilIdle()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if k.Now() != Time(30*Millisecond) {
		t.Fatalf("final clock %d, want %d", k.Now(), 30*Millisecond)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(Millisecond, func() { got = append(got, i) })
	}
	k.RunUntilIdle()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New(1)
	fired := false
	k.After(-5, func() { fired = true })
	k.RunUntilIdle()
	if !fired || k.Now() != 0 {
		t.Fatalf("fired=%v now=%d; want true, 0", fired, k.Now())
	}
}

func TestAtInPastClamped(t *testing.T) {
	k := New(1)
	k.After(10*Millisecond, func() {
		k.At(Time(Millisecond), func() {})
	})
	k.RunUntilIdle()
	if k.Now() != Time(10*Millisecond) {
		t.Fatalf("clock went backwards: %d", k.Now())
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	k := New(1)
	count := 0
	k.Every(Second, func() bool { count++; return true })
	k.Run(Time(5*Second + Millisecond))
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	if k.Now() != Time(5*Second+Millisecond) {
		t.Fatalf("clock = %d, want deadline", k.Now())
	}
}

func TestRunAdvancesToDeadlineWhenIdle(t *testing.T) {
	k := New(1)
	k.Run(Time(7 * Second))
	if k.Now() != Time(7*Second) {
		t.Fatalf("clock = %d, want 7s", k.Now())
	}
}

func TestEveryStopsOnFalse(t *testing.T) {
	k := New(1)
	count := 0
	k.Every(Second, func() bool {
		count++
		return count < 3
	})
	k.RunUntilIdle()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := New(1)
	count := 0
	k.Every(Second, func() bool {
		count++
		if count == 2 {
			k.Stop()
		}
		return true
	})
	k.Run(Time(100 * Second))
	if count != 2 {
		t.Fatalf("ticks = %d, want 2", count)
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	// A stopped run halts after the current event: the clock must stay at
	// the last fired event, not jump ahead to the deadline.
	if k.Now() != Time(2*Second) {
		t.Fatalf("clock after Stop = %d, want %d (last fired event)", k.Now(), 2*Second)
	}
}

func TestStopBeforeRunLeavesClock(t *testing.T) {
	k := New(1)
	k.After(Second, func() {})
	k.Stop()
	k.Run(Time(10 * Second))
	if k.Now() != 0 {
		t.Fatalf("clock = %d, want 0: no event fired before Stop", k.Now())
	}
}

// Regression: a non-positive period used to reschedule at the same instant
// forever, so RunUntilIdle never returned. The period is floored to 1µs.
func TestEveryNonPositivePeriodTerminates(t *testing.T) {
	for _, d := range []Duration{0, -5} {
		k := New(1)
		count := 0
		k.Every(d, func() bool {
			count++
			return count < 4
		})
		k.RunUntilIdle() // must terminate
		if count != 4 {
			t.Fatalf("Every(%d): ticks = %d, want 4", d, count)
		}
		if k.Now() != Time(4*Microsecond) {
			t.Fatalf("Every(%d): clock = %d, want 4µs (floored period)", d, k.Now())
		}
	}
}

func TestAfterFuncFiresOnce(t *testing.T) {
	k := New(1)
	fired := 0
	k.AfterFunc(Second, func() { fired++ })
	k.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestTimerStopCancels(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.AfterFunc(Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on a pending timer")
	}
	k.RunUntilIdle()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	if tm.Reset(Second) {
		t.Fatal("Reset on a stopped timer = true")
	}
}

func TestTimerResetPostpones(t *testing.T) {
	k := New(1)
	var at Time
	tm := k.AfterFunc(Second, func() { at = k.Now() })
	tm.Reset(3 * Second)
	k.RunUntilIdle()
	if at != Time(3*Second) {
		t.Fatalf("fired at %d, want 3s", at)
	}
	// The timer released its slot after firing un-re-armed.
	if tm.Reset(Second) {
		t.Fatal("Reset after unre-armed fire = true")
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	k := New(1)
	var times []Time
	var tm *Timer
	tm = k.AfterFunc(Second, func() {
		times = append(times, k.Now())
		if len(times) < 3 {
			tm.Reset(Second)
		}
	})
	k.RunUntilIdle()
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}
	if len(times) != len(want) {
		t.Fatalf("fires = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fires = %v, want %v", times, want)
		}
	}
}

func TestTimerStopFromOwnCallback(t *testing.T) {
	k := New(1)
	var tm *Timer
	ran := false
	tm = k.AfterFunc(Second, func() {
		ran = true
		tm.Stop() // releasing the slot from inside the callback must be safe
	})
	k.RunUntilIdle()
	if !ran {
		t.Fatal("callback did not run")
	}
	if tm.Reset(Second) {
		t.Fatal("Reset after self-Stop = true")
	}
}

// Timer slots are recycled: a long run of one-shot timers must not grow the
// slot table beyond the number simultaneously live.
func TestTimerSlotRecycling(t *testing.T) {
	k := New(1)
	for i := 0; i < 1000; i++ {
		k.AfterFunc(Duration(i), func() {})
	}
	k.RunUntilIdle()
	for i := 0; i < 1000; i++ {
		k.AfterFunc(Duration(i), func() {})
		k.RunUntilIdle()
	}
	if n := len(k.q.slots); n > 1001 {
		t.Fatalf("slot table grew to %d; recycling is broken", n)
	}
}

func TestKernelStats(t *testing.T) {
	k := New(1)
	for i := 0; i < 10; i++ {
		k.After(Duration(i), func() {})
	}
	if st := k.Stats(); st.PeakQueue != 10 || st.Fired != 0 {
		t.Fatalf("pre-run stats = %+v, want peak 10, fired 0", st)
	}
	k.RunUntilIdle()
	if st := k.Stats(); st.Fired != 10 || st.PeakQueue != 10 {
		t.Fatalf("post-run stats = %+v, want fired 10, peak 10", st)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.After(Microsecond, recurse)
		}
	}
	k.After(0, recurse)
	k.RunUntilIdle()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestDeterminismAcrossKernels(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var trace []int64
		for i := 0; i < 50; i++ {
			d := Duration(k.Rand().Int63n(int64(Second)))
			k.After(d, func() { trace = append(trace, int64(k.Now())) })
		}
		k.RunUntilIdle()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different trace lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{3 * Second, "3.000s"},
		{Millis(1.5), "1.500ms"},
		{250 * Microsecond, "250µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}

// Property: the kernel never fires events out of time order, regardless of
// the scheduling pattern.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint32) bool {
		k := New(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			k.After(Duration(d%uint32(10*Second)), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.RunUntilIdle()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pending decreases to zero and all scheduled events fire exactly
// once.
func TestPropertyAllEventsFire(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New(9)
		fired := 0
		for _, d := range delays {
			k.After(Duration(d), func() { fired++ })
		}
		k.RunUntilIdle()
		return fired == len(delays) && k.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSameInstantContract pins the (at, seq) contract end to end: at one
// instant events fire in the order they were scheduled, whichever call
// scheduled them and from whichever earlier instant; a child scheduled at
// its parent's instant fires after the parent's whole cohort; and Reset is a
// fresh scheduling, both on a pending timer and from inside its callback.
func TestSameInstantContract(t *testing.T) {
	k := New(7)
	var log []string
	mark := func(tag string) func() { return func() { log = append(log, tag) } }
	const at = 100
	k.At(at, func() {
		log = append(log, "a")
		k.After(0, mark("a-child"))
	})
	var tm *Timer
	tm = k.AfterFunc(at, func() {
		log = append(log, "t")
		if len(log) < 4 {
			tm.Reset(0)
		}
	})
	k.After(at/2, func() { k.At(at, mark("late")) })
	r := k.AfterFunc(at, mark("r"))
	k.After(at, mark("b"))
	r.Reset(at)
	k.RunUntilIdle()
	want := []string{"a", "t", "b", "r", "late", "a-child", "t"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("same-instant order = %v, want %v", log, want)
	}
}

// TestTimerResetSameInstantIsFreshScheduling pins the Reset contract: Reset
// on a pending timer assigns a fresh counter, so a Reset to the current
// instant fires after events already queued for that instant — the order a
// Stop + new AfterFunc produces.
func TestTimerResetSameInstantIsFreshScheduling(t *testing.T) {
	viaReset := func() []string {
		k := New(3)
		var log []string
		tm := k.AfterFunc(0, func() { log = append(log, "T") })
		k.After(0, func() { log = append(log, "A") })
		tm.Reset(0) // re-stamp: T must now fire after A and before B
		k.After(0, func() { log = append(log, "B") })
		k.RunUntilIdle()
		return log
	}
	viaStopStart := func() []string {
		k := New(3)
		var log []string
		tm := k.AfterFunc(0, func() { log = append(log, "T") })
		k.After(0, func() { log = append(log, "A") })
		tm.Stop()
		k.AfterFunc(0, func() { log = append(log, "T") })
		k.After(0, func() { log = append(log, "B") })
		k.RunUntilIdle()
		return log
	}
	want := []string{"A", "T", "B"}
	if got := viaReset(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Reset-to-now order = %v, want %v (fresh scheduling)", got, want)
	}
	if got := viaStopStart(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stop+AfterFunc order = %v, want %v", got, want)
	}
}

// TestTimerResetDifferentialAgainstStopStart runs a randomized mix of
// Reset-in-place and Stop+reschedule under same-instant contention and
// checks both strategies produce the same fire order.
func TestTimerResetDifferentialAgainstStopStart(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := int64(500 + trial)
		run := func(useReset bool) []string {
			rng := rand.New(rand.NewSource(seed))
			k := New(seed)
			var log []string
			type step struct {
				d     Duration
				plain bool
			}
			steps := make([]step, 30)
			for i := range steps {
				steps[i] = step{d: Duration(rng.Intn(3)), plain: rng.Intn(2) == 0}
			}
			tm := k.AfterFunc(1, func() { log = append(log, "tick") })
			for i, s := range steps {
				i := i
				if s.plain {
					k.After(s.d, func() { log = append(log, fmt.Sprintf("p%d", i)) })
					continue
				}
				if useReset {
					tm.Reset(s.d)
				} else {
					tm.Stop()
					tm = k.AfterFunc(s.d, func() { log = append(log, "tick") })
				}
			}
			k.RunUntilIdle()
			return log
		}
		if a, b := run(true), run(false); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Reset order %v != Stop+AfterFunc order %v", seed, a, b)
		}
	}
}
