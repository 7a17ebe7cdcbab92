// Package workload provides the client drivers and latency recorders shared
// by the PLASMA example applications: closed-loop clients (send, wait for
// the reply, think, repeat — how the paper's Metadata Server and E-Store
// clients behave) and open-loop clients (arrivals at a rate that ignores
// completions — how the burst and stream families offer load).
package workload

import (
	"plasma/internal/actor"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

// Recorder aggregates request latencies into a histogram and a time series
// of per-bucket means (the paper's latency-over-time figures).
type Recorder struct {
	Bucket sim.Duration

	Hist metrics.Histogram

	curStart sim.Time
	curSum   float64
	curN     int
	series   metrics.Series
}

// NewRecorder creates a recorder with the given time-bucket width.
func NewRecorder(bucket sim.Duration) *Recorder {
	return &Recorder{Bucket: bucket}
}

// Record adds one latency observation at virtual time now.
func (r *Recorder) Record(now sim.Time, lat sim.Duration) {
	ms := float64(lat) / float64(sim.Millisecond)
	r.Hist.Observe(ms)
	for now >= r.curStart+sim.Time(r.Bucket) {
		r.flush()
	}
	r.curSum += ms
	r.curN++
}

func (r *Recorder) flush() {
	if r.curN > 0 {
		r.series.Add(r.curStart.Seconds(), r.curSum/float64(r.curN))
	}
	r.curStart += sim.Time(r.Bucket)
	r.curSum, r.curN = 0, 0
}

// Series returns the completed per-bucket mean latency series (seconds vs
// milliseconds). The current partial bucket is flushed.
func (r *Recorder) Series() *metrics.Series {
	if r.curN > 0 {
		r.series.Add(r.curStart.Seconds(), r.curSum/float64(r.curN))
		r.curSum, r.curN = 0, 0
	}
	return &r.series
}

// Request describes one request a driver should issue.
type Request struct {
	Target actor.Ref
	Method string
	Arg    interface{}
	Size   int64
}

// ClosedLoop is a client that keeps one request outstanding: it sends,
// waits for the reply, records the latency, thinks, and repeats until
// stopped.
type ClosedLoop struct {
	K      *sim.Kernel
	Client *actor.Client
	Think  sim.Duration
	// Next picks the next request (called before every send).
	Next func() Request
	// Rec, when set, records request latencies.
	Rec *Recorder
	// OnReply, when set, observes every completed request.
	OnReply func(lat sim.Duration)

	stopped bool
}

// Start issues the first request. The loop's step and reply callbacks are
// built here, once, so that a request allocates neither.
func (c *ClosedLoop) Start() {
	var step func()
	reply := func(lat sim.Duration, _ interface{}) {
		if c.Rec != nil {
			c.Rec.Record(c.K.Now(), lat)
		}
		if c.OnReply != nil {
			c.OnReply(lat)
		}
		c.K.After(c.Think, step)
	}
	step = func() {
		if c.stopped {
			return
		}
		req := c.Next()
		if req.Target.Zero() {
			c.K.After(c.Think, step)
			return
		}
		c.Client.Request(req.Target, req.Method, req.Arg, req.Size, reply)
	}
	step()
}

// Stop ends the loop after the outstanding request completes.
func (c *ClosedLoop) Stop() { c.stopped = true }

// OpenLoop is a set of clients firing regardless of completions. Client i of
// Clients first fires at i·Every/Clients (arrivals staggered across one
// interval), then again Every/Rate(now) later — floored at one microsecond —
// until the horizon.
type OpenLoop struct {
	K       *sim.Kernel
	Clients int
	// Every is each client's inter-arrival interval at rate 1.
	Every sim.Duration
	// Rate is the arrival-rate multiplier at virtual time t (nil = constant
	// 1; a flash crowd returns 10-100 inside its window). A rate that is not
	// above 0 (0, negative, NaN) pauses the client: it fires nothing and
	// looks again one Every later.
	Rate func(t sim.Time) float64
	// Until is the horizon: a client due at or after it sends nothing more.
	Until sim.Time
	// Fire issues one arrival from the given client.
	Fire func(client int)
}

// Start schedules every client's first arrival.
func (o *OpenLoop) Start() {
	rate := o.Rate
	if rate == nil {
		rate = func(sim.Time) float64 { return 1 }
	}
	for i := 0; i < o.Clients; i++ {
		var loop func()
		loop = func() {
			if o.K.Now() >= o.Until {
				return
			}
			x := rate(o.K.Now())
			if !(x > 0) {
				o.K.After(o.Every, loop)
				return
			}
			o.Fire(i)
			o.K.After(max(sim.Duration(float64(o.Every)/x), sim.Microsecond), loop)
		}
		o.K.At(sim.Time(i)*sim.Time(o.Every)/sim.Time(o.Clients), loop)
	}
}

// SkewedPicker returns a function choosing index i with the given weights
// (need not sum to 1), deterministically from the kernel's random stream.
func SkewedPicker(k *sim.Kernel, weights []float64) func() int {
	var total float64
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	return func() int {
		x := k.Rand().Float64()
		for i, c := range cum {
			if x <= c {
				return i
			}
		}
		return len(cum) - 1
	}
}

// ZipfKeys draws keys from a seeded Zipf popularity distribution whose hot
// set occupies a contiguous, rotatable span of the key space — the
// streaming workloads' drifting hot-key model. Rank r is drawn Zipf(s) over
// [0, n); the hottest span ranks are interleaved across the span's blocks
// (key = offset + (r mod span/block)·block + r/(span/block)), so a
// block-partitioned deployment sees the hot load split across span/block
// partitions instead of piling the whole head into one; colder ranks map
// contiguously past the span. Rotate shifts the whole mapping by delta
// keys, moving the hot set onto previously cold partitions in one instant —
// the "skew shift" whose recovery time the stream experiments measure.
// The ranks are rand.NewZipf(k.Rand(), s, 1, n-1)'s, drawn by a sampler
// that tables its inversion instead of paying an Exp and a Log per draw.
type ZipfKeys struct {
	n      int
	hot    []int32 // hot[r]: rank r's key before rotation, for r < span
	offset int
	z      *zipf
}

// NewZipfKeys builds the drawer: n ≥ 1 keys total, Zipf exponent s > 1, a
// hot span of span ∈ [0, n] keys interleaved in units of block ≥ 1 (block
// must divide span). It panics on any other argument.
func NewZipfKeys(k *sim.Kernel, s float64, n, span, block int) *ZipfKeys {
	switch {
	case !(s > 1):
		panic("workload: ZipfKeys exponent s must be > 1")
	case n < 1:
		panic("workload: ZipfKeys needs n >= 1 keys")
	case block < 1:
		panic("workload: ZipfKeys block must be >= 1")
	case span < 0 || span%block != 0 || span > n:
		panic("workload: ZipfKeys span must be a multiple of block in [0, n]")
	}
	hot, blocks := make([]int32, span), span/block
	for r := range hot {
		hot[r] = int32((r%blocks)*block + r/blocks)
	}
	return &ZipfKeys{n: n, hot: hot, z: newZipf(k.Rand(), s, uint64(n-1))}
}

// Draw returns the next key.
func (z *ZipfKeys) Draw() int {
	key := int(z.z.Uint64())
	if key < len(z.hot) {
		key = int(z.hot[key])
	}
	// key ≤ n (the sampler's range ends at imax+1) and offset < n.
	if key += z.offset; key >= z.n {
		key -= z.n
	}
	return key
}

// Rotate shifts the rank→key mapping by delta keys (the hot-set drift).
func (z *ZipfKeys) Rotate(delta int) {
	z.offset = ((z.offset+delta)%z.n + z.n) % z.n
}

// GeometricWeights returns E-Store's §5.5 request skew: the first element
// takes frac of the total, the second frac of the remainder, and so on.
func GeometricWeights(n int, frac float64) []float64 {
	w := make([]float64, n)
	remaining := 1.0
	for i := 0; i < n; i++ {
		if i == n-1 {
			w[i] = remaining
			break
		}
		w[i] = remaining * frac
		remaining -= w[i]
	}
	return w
}
