package workload

import (
	"math"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

func env() (*sim.Kernel, *actor.Runtime, actor.Ref) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	echo := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(5 * sim.Millisecond)
		ctx.Reply("ok", 32)
	})
	return k, rt, rt.SpawnOn("Echo", echo, 0)
}

func TestClosedLoopKeepsOneOutstanding(t *testing.T) {
	k, rt, ref := env()
	count := 0
	loop := &ClosedLoop{
		K: k, Client: actor.NewClient(rt, 1), Think: 10 * sim.Millisecond,
		Next:    func() Request { return Request{Target: ref, Method: "m", Size: 8} },
		OnReply: func(sim.Duration) { count++ },
	}
	loop.Start()
	k.Run(sim.Time(200 * sim.Millisecond))
	// Cycle = ~5ms processing + network + 10ms think: roughly 12 requests.
	if count < 8 || count > 16 {
		t.Fatalf("completions = %d, want ~12", count)
	}
	loop.Stop()
	k.RunUntilIdle()
	final := count
	k.Run(k.Now() + sim.Time(100*sim.Millisecond))
	if count != final {
		t.Fatal("loop kept running after Stop")
	}
}

func TestClosedLoopSkipsZeroTarget(t *testing.T) {
	k, rt, ref := env()
	calls := 0
	loop := &ClosedLoop{
		K: k, Client: actor.NewClient(rt, 1), Think: 10 * sim.Millisecond,
		Next: func() Request {
			calls++
			if calls < 3 {
				return Request{} // not ready yet
			}
			return Request{Target: ref, Method: "m", Size: 8}
		},
	}
	loop.Start()
	k.Run(sim.Time(100 * sim.Millisecond))
	if calls < 3 {
		t.Fatalf("Next called %d times; zero target should retry", calls)
	}
	loop.Stop()
	k.RunUntilIdle()
}

// A steady request allocates nothing: the loop's own step and reply
// callbacks are built once, in Start, and the runtime files the reply path in
// a reused slot of its reply table.
func TestClosedLoopSteadyRequestAllocatesNothing(t *testing.T) {
	k, rt, ref := env()
	count := 0
	loop := &ClosedLoop{
		K: k, Client: actor.NewClient(rt, 1), Think: 10 * sim.Millisecond,
		Next:    func() Request { return Request{Target: ref, Method: "m", Size: 8} },
		OnReply: func(sim.Duration) { count++ },
	}
	loop.Start()
	request := func() {
		for want := count + 1; count < want; {
			k.Step()
		}
	}
	for i := 0; i < 100; i++ {
		request()
	}
	if got := testing.AllocsPerRun(200, request); got > 0 {
		t.Fatalf("a steady request allocated %v times, want 0", got)
	}
}

// Rec and OnReply are read at each reply, so hooks set after Start count.
func TestClosedLoopHooksSetAfterStart(t *testing.T) {
	k, rt, ref := env()
	loop := &ClosedLoop{
		K: k, Client: actor.NewClient(rt, 1), Think: 10 * sim.Millisecond,
		Next: func() Request { return Request{Target: ref, Method: "m", Size: 8} },
	}
	loop.Start()
	rec, replies := NewRecorder(sim.Second), 0
	loop.Rec, loop.OnReply = rec, func(sim.Duration) { replies++ }
	k.Run(sim.Time(200 * sim.Millisecond))
	if replies == 0 || rec.Hist.Count() != replies {
		t.Fatalf("OnReply saw %d replies and Rec %d, want the same nonzero count", replies, rec.Hist.Count())
	}
}

// The open loop fires at Every/Rate(now): two staggered clients at 20 ms, ten
// times faster inside [100 ms, 200 ms), nothing at or after the 300 ms
// horizon, and a rate that asks for less than a microsecond gets the floor.
func TestOpenLoopFiresAtRate(t *testing.T) {
	k := sim.New(1)
	var fired [2][]sim.Time
	loop := &OpenLoop{
		K: k, Clients: 2, Every: 20 * sim.Millisecond,
		Rate: func(t sim.Time) float64 {
			if t >= sim.Time(100*sim.Millisecond) && t < sim.Time(200*sim.Millisecond) {
				return 10
			}
			return 1
		},
		Until: sim.Time(300 * sim.Millisecond),
		Fire:  func(c int) { fired[c] = append(fired[c], k.Now()) },
	}
	loop.Start()
	k.RunUntilIdle()

	// Client 0: 0,20,..,100 (6), then every 2 ms through 198 (49 more), the
	// arrival at 200 is back at rate 1: 200,220,..,280 (5).
	if n := len(fired[0]); n != 6+49+5 {
		t.Fatalf("client 0 fired %d times, want 60: %v", n, fired[0])
	}
	if fired[1][0] != sim.Time(10*sim.Millisecond) {
		t.Fatalf("client 1 first fired at %v, want the half-interval stagger 10ms", fired[1][0])
	}
	for c := range fired {
		for i, at := range fired[c] {
			if at >= loop.Until {
				t.Fatalf("client %d fired at %v, at or past the horizon", c, at)
			}
			if i == 0 {
				continue
			}
			want := sim.Time(20 * sim.Millisecond)
			if prev := fired[c][i-1]; prev >= sim.Time(100*sim.Millisecond) && prev < sim.Time(200*sim.Millisecond) {
				want = sim.Time(2 * sim.Millisecond)
			}
			if got := at - fired[c][i-1]; got != want {
				t.Fatalf("client %d arrival %d came %v after the last, want %v", c, i, got, want)
			}
		}
	}

	// A nil Rate is constant 1; an absurd one is floored at 1 µs, not 0.
	k = sim.New(1)
	var n int
	var last sim.Time
	floor := &OpenLoop{
		K: k, Clients: 1, Every: sim.Millisecond,
		Rate:  func(sim.Time) float64 { return 1e9 },
		Until: sim.Time(50 * sim.Microsecond),
		Fire: func(int) {
			if n > 0 && k.Now()-last != sim.Time(sim.Microsecond) {
				t.Fatalf("arrival %d came %v after the last, want the 1µs floor", n, k.Now()-last)
			}
			n, last = n+1, k.Now()
		},
	}
	floor.Start()
	k.RunUntilIdle()
	if n != 50 {
		t.Fatalf("floored loop fired %d times in 50µs, want 50", n)
	}
	k = sim.New(1)
	n = 0
	(&OpenLoop{K: k, Clients: 1, Every: 10 * sim.Millisecond, Until: sim.Time(95 * sim.Millisecond),
		Fire: func(int) { n++ }}).Start()
	k.RunUntilIdle()
	if n != 10 {
		t.Fatalf("nil-rate loop fired %d times, want 10 (0..90 ms)", n)
	}
}

// A rate that is not above 0 pauses a client instead of flooring its
// interval at 1 µs: nothing fires while it lasts, and the client looks again
// one Every later.
func TestOpenLoopPausesWhileRateNotPositive(t *testing.T) {
	for _, paused := range []float64{0, -2, math.NaN()} {
		k := sim.New(1)
		var fired []sim.Time
		(&OpenLoop{
			K: k, Clients: 1, Every: 100 * sim.Millisecond,
			Rate: func(t sim.Time) float64 {
				if t < sim.Time(sim.Second) {
					return paused
				}
				return 1
			},
			Until: sim.Time(2 * sim.Second),
			Fire:  func(int) { fired = append(fired, k.Now()) },
		}).Start()
		k.RunUntilIdle()
		if len(fired) != 10 || fired[0] != sim.Time(sim.Second) {
			t.Fatalf("rate %v for the first second: fired %d times from %v, want 10 from 1s", paused, len(fired), fired)
		}
	}
}

func TestRecorderBucketsAndHistogram(t *testing.T) {
	r := NewRecorder(sim.Second)
	r.Record(sim.Time(100*sim.Millisecond), 10*sim.Millisecond)
	r.Record(sim.Time(200*sim.Millisecond), 20*sim.Millisecond)
	r.Record(sim.Time(1500*sim.Millisecond), 40*sim.Millisecond)
	s := r.Series()
	if s.Len() != 2 {
		t.Fatalf("buckets = %d, want 2", s.Len())
	}
	if math.Abs(s.Y[0]-15) > 1e-9 {
		t.Fatalf("bucket 0 mean = %v, want 15", s.Y[0])
	}
	if math.Abs(s.Y[1]-40) > 1e-9 {
		t.Fatalf("bucket 1 mean = %v, want 40", s.Y[1])
	}
	if r.Hist.Count() != 3 {
		t.Fatalf("hist count = %d", r.Hist.Count())
	}
}

func TestRecorderSkipsEmptyBuckets(t *testing.T) {
	r := NewRecorder(sim.Second)
	r.Record(sim.Time(100*sim.Millisecond), 10*sim.Millisecond)
	r.Record(sim.Time(5500*sim.Millisecond), 30*sim.Millisecond)
	s := r.Series()
	if s.Len() != 2 {
		t.Fatalf("buckets = %d, want 2 (empty ones skipped)", s.Len())
	}
	if s.X[1] != 5 {
		t.Fatalf("second bucket at %v s, want 5", s.X[1])
	}
}

func TestSkewedPickerDistribution(t *testing.T) {
	k := sim.New(42)
	pick := SkewedPicker(k, []float64{0.5, 0.25, 0.25})
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[pick()]++
	}
	if counts[0] < 4700 || counts[0] > 5300 {
		t.Fatalf("hot index picked %d/10000, want ~5000", counts[0])
	}
	if counts[1]+counts[2] < 4700 {
		t.Fatalf("cold indices %d, %d", counts[1], counts[2])
	}
}

func TestGeometricWeightsSkew(t *testing.T) {
	w := GeometricWeights(40, 0.35)
	if len(w) != 40 {
		t.Fatalf("len = %d", len(w))
	}
	if math.Abs(w[0]-0.35) > 1e-9 {
		t.Fatalf("w[0] = %v", w[0])
	}
	// Second takes 35% of the remaining 65%.
	if math.Abs(w[1]-0.65*0.35) > 1e-9 {
		t.Fatalf("w[1] = %v", w[1])
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestZipfKeysInterleavesHotSpan(t *testing.T) {
	k := sim.New(1)
	// span 16 in blocks of 4: rank r < 16 maps to (r%4)*4 + r/4, spreading
	// the head across all four blocks instead of packing it into one.
	z := NewZipfKeys(k, 1.1, 64, 16, 4)
	counts := make([]int, 4) // hits per block of the hot span
	for i := 0; i < 20000; i++ {
		key := z.Draw()
		if key < 16 {
			counts[key/4]++
		}
	}
	for b, n := range counts {
		if n == 0 {
			t.Fatalf("hot-span block %d never drawn; interleave broken (counts=%v)", b, counts)
		}
	}
	// The four hottest ranks (0..3) land one per block, so no block may
	// dominate: the spread between blocks stays well under the Zipf head's
	// own skew.
	min, max := counts[0], counts[0]
	for _, n := range counts[1:] {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if float64(max) > 3*float64(min) {
		t.Fatalf("hot span badly unbalanced across blocks: %v", counts)
	}
}

func TestZipfKeysRotateMovesHotSet(t *testing.T) {
	k := sim.New(1)
	z := NewZipfKeys(k, 1.1, 64, 16, 4)
	if z.offset != 0 {
		t.Fatalf("fresh drawer offset = %d, want 0", z.offset)
	}
	z.Rotate(32)
	if z.offset != 32 {
		t.Fatalf("offset after Rotate(32) = %d, want 32", z.offset)
	}
	// Post-rotation the hot span occupies [32, 48): the bulk of draws must
	// land there and none of the old hot ranks keep their old keys.
	hits := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		key := z.Draw()
		if key >= 32 && key < 48 {
			hits++
		}
	}
	if hits < draws/2 {
		t.Fatalf("only %d/%d draws in the rotated hot span; rotation did not move the head", hits, draws)
	}
	// Rotation wraps modulo n and composes.
	z.Rotate(40)
	if z.offset != (32+40)%64 {
		t.Fatalf("offset after second rotate = %d, want %d", z.offset, (32+40)%64)
	}
	z.Rotate(-8)
	if z.offset != 0 {
		t.Fatalf("negative rotate did not wrap: offset = %d, want 0", z.offset)
	}
}

func TestZipfKeysDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		k := sim.New(seed)
		z := NewZipfKeys(k, 1.05, 2048, 256, 64)
		out := make([]int, 256)
		for i := range out {
			if i == 128 {
				z.Rotate(1024)
			}
			out[i] = z.Draw()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical draw sequence")
	}
}
