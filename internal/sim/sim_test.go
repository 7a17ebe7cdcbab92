package sim

import (
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
	var times []Time
	k.Every(Second, func() bool {
		times = append(times, k.Now())
		return len(times) < 3
	})
	k.RunUntilIdle()
	if want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}; !reflect.DeepEqual(times, want) {
		t.Fatalf("ticks at %v, want %v", times, want)
	}
}

// A callback that re-arms itself with After from inside its own run fires at
// each period, measured from the instant it ran.
func TestTimerRearmFromCallback(t *testing.T) {
	k := New(1)
	var times []Time
	var fire func()
	fire = func() {
		times = append(times, k.Now())
		if len(times) < 3 {
			k.After(Second, fire)
		}
	}
	k.After(Second, fire)
	k.RunUntilIdle()
	if want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}; !reflect.DeepEqual(times, want) {
		t.Fatalf("fires = %v, want %v", times, want)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after the last fire, want 0", k.Pending())
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
// its parent's instant fires after the parent's whole cohort; and an Every
// re-arm is a fresh scheduling, stamped once its callback has returned —
// after the callback's own children and everything queued before it.
func TestSameInstantContract(t *testing.T) {
	k := New(7)
	var log []string
	mark := func(tag string) func() { return func() { log = append(log, tag) } }
	const at = 100
	k.At(at, func() {
		log = append(log, "a")
		k.After(0, mark("a-child"))
	})
	ticks := 0
	k.Every(at, func() bool {
		log = append(log, "t")
		k.After(at, mark("t-child"))
		ticks++
		return ticks < 2
	})
	k.After(at/2, func() {
		k.At(at, mark("late"))
		k.At(2*at, mark("early"))
	})
	k.After(at, mark("b"))
	k.RunUntilIdle()
	want := []string{"a", "t", "b", "late", "a-child", "early", "t-child", "t", "t-child"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("same-instant order = %v, want %v", log, want)
	}
}
