package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/metrics"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// scale says how much of a workload one pass runs. Work is fixed by the
// scale, never by the host clock, so two commits run at the same scale
// simulate the same event sequence.
type scale struct {
	// Work multiplies horizons and iteration counts. --seconds sets it:
	// Work 1 is sized to measure for runSeconds on the reference machine.
	Work float64
	// World multiplies fleet, graph and client counts. It is 1 in every
	// measured run; the package's tests shrink it.
	World float64
}

// scaled multiplies a count, keeping it at least min.
func scaled(count int, by float64, min int) int {
	v := int(math.Round(float64(count) * by))
	if v < min {
		v = min
	}
	return v
}

// dur scales a virtual duration by the work factor.
func (sc scale) dur(d sim.Duration) sim.Duration { return sim.Duration(float64(d) * sc.Work) }

// spec is one of the benchmark's four sets of inputs.
type spec struct {
	Name string
	Why  string
	// SubSeeds is how many independently seeded worlds one pass runs back
	// to back; host metrics sum over them and op samples pool.
	SubSeeds int
	// SLOms is the fixed latency line sim_slo_viol_s is integrated against,
	// and Bucket the virtual width of the windows whose p99 is held to it.
	SLOms  float64
	Bucket sim.Duration
	// Pulse is the virtual time between two of the stopwatch's laps inside
	// the run, chosen to give each world some sixty slices.
	Pulse sim.Duration
	// Build constructs one world. Everything it does is set-up.
	Build func(p *pass, seed int64, sc scale) *world
}

// world is one seeded deployment, built the way internal/experiments
// builds its own: sim.New, cluster.New, actor.NewRuntime, profile.New, the
// application's Build, emr.New.
type world struct {
	p    *pass
	k    *sim.Kernel
	c    *cluster.Cluster
	rt   *actor.Runtime
	prof *profile.Profiler
	pol  *epl.Policy
	mgr  *emr.Manager

	hook *timedHook  // traced passes only
	sink *hostSink   // traced passes, and any workload that keeps its trace
	ring *trace.Ring // workloads that keep their trace
	inj  *chaos.Injector
	env  *chaosEnv

	// drive runs the kernel to the workload's horizon or completion; it is
	// the run phase's simulation part.
	drive func()
	// check reports the workload's own output problems after the run.
	check func() []string

	ops        opLog
	horizon    sim.Time // where the SLO and server-seconds integrals end
	serverSec  float64
	meterLast  sim.Time
	meterDone  bool
	ended      bool // the run is over: the pulse stops
	parseCheck time.Duration
	edgeCut    int64
	sizes      map[string]int
	actors0    int // live actors when set-up ended
	// actorsWant is the live-actor count the run must end with; nil means
	// the count set-up ended with.
	actorsWant func() int
}

// newWorld builds the layers every workload shares. servers machines of typ
// are up at time zero.
func (p *pass) newWorld(seed int64, servers int, typ cluster.InstanceType) *world {
	w := &world{p: p, sizes: map[string]int{}}
	p.spans.in("sim", "sim.New", func() { w.k = sim.New(seed) })
	p.spans.in("cluster", "cluster.New", func() { w.c = cluster.New(w.k, servers, typ) })
	p.spans.in("actor", "actor.NewRuntime", func() { w.rt = actor.NewRuntime(w.k, w.c) })
	p.spans.in("profile", "profile.New", func() { w.prof = profile.New(w.k, w.c, w.rt) })
	if p.traced {
		w.hook = &timedHook{inner: w.prof}
		w.rt.SetProfiler(w.hook)
	}
	w.ops.k = w.k
	w.ops.bucket = p.wl.Bucket
	w.ops.pool = &p.pooled
	w.sizes["servers"] = servers
	return w
}

// policy parses and checks the workload's elasticity policy.
func (w *world) policy(src string, schema *epl.Schema) {
	t0 := time.Now()
	w.p.spans.in("epl", "epl.Parse+Check", func() {
		pol, err := epl.Parse(src)
		if err != nil {
			panic(fmt.Sprintf("benchmark: policy does not parse: %v", err))
		}
		if _, err := epl.Check(pol, schema); err != nil {
			panic(fmt.Sprintf("benchmark: policy does not check: %v", err))
		}
		w.pol = pol
	})
	w.parseCheck = time.Since(t0)
}

// manage puts the world under an EMR. keepTrace turns the decision tracer
// on into a ring the run phase encodes; a traced pass puts the harness's
// sink in front of it either way, to count and time the records.
func (w *world) manage(cfg emr.Config, keepTrace bool, ringCap int) {
	w.p.spans.in("emr", "emr.New", func() {
		w.mgr = emr.New(w.k, w.c, w.rt, w.prof, w.pol, cfg)
	})
	var sink trace.Sink
	if keepTrace {
		w.ring = trace.NewRing(ringCap)
		sink = w.ring
	}
	if w.p.traced {
		w.sink = newHostSink(sink)
		sink = w.sink
	}
	if sink != nil {
		tr := trace.New(sink)
		tr.SetClock(w.k.Now)
		w.mgr.SetTracer(tr)
	}
}

// meterServers integrates Cluster.UpCount over virtual time on a one-second
// grid, until horizon; a zero horizon leaves the integral open until
// closeMeter.
func (w *world) meterServers(horizon sim.Time) {
	w.horizon = horizon
	w.meterLast = w.k.Now()
	w.k.Every(sim.Second, func() bool {
		if !w.meterDone {
			w.meterTick()
		}
		return !w.meterDone
	})
}

func (w *world) meterTick() {
	now := w.k.Now()
	if w.horizon > 0 && now >= w.horizon {
		now, w.meterDone = w.horizon, true
	}
	w.serverSec += float64(w.c.UpCount()) * sim.Duration(now-w.meterLast).Seconds()
	w.meterLast = now
}

// closeMeter ends an open-ended integral now.
func (w *world) closeMeter() {
	w.horizon = w.k.Now()
	w.meterTick()
}

// pulse laps the pass's stopwatch every Pulse of virtual time until the
// world's run ends, so that the run is timed in slices.
func (w *world) pulse() {
	w.k.Every(w.p.wl.Pulse, func() bool {
		if !w.ended {
			w.p.watch.lap()
		}
		return !w.ended
	})
}

// opLog records the workload's ops: how many were attempted, each
// completed op's virtual latency, and the same latencies by the window the
// op was sent in, which is what the SLO line is held against.
type opLog struct {
	k      *sim.Kernel
	bucket sim.Duration

	lat      metrics.Histogram   // ms, every completed op
	pool     *metrics.Histogram  // the pass's samples, pooled over sub-seeds
	byBucket []metrics.Histogram // ms, by the window the op was sent in
	open     []int               // ops sent in the window and not answered yet

	attempted, completed, dupes int64
}

func (o *opLog) grow(b int) {
	for len(o.open) <= b {
		o.open = append(o.open, 0)
		o.byBucket = append(o.byBucket, metrics.Histogram{})
	}
}

// attempt notes an op sent now and returns its window.
func (o *opLog) attempt() int {
	b := int(sim.Duration(o.k.Now()) / o.bucket)
	o.grow(b)
	o.open[b]++
	o.attempted++
	return b
}

// complete notes the answer to an op attempted in window b.
func (o *opLog) complete(b int, lat sim.Duration) {
	ms := float64(lat) / float64(sim.Millisecond)
	o.open[b]--
	o.completed++
	o.lat.Observe(ms)
	o.pool.Observe(ms)
	o.byBucket[b].Observe(ms)
}

// request wraps a client request's reply callback: the op is attempted
// now, and a second reply to the same request is counted, not recorded.
func (o *opLog) request() func(sim.Duration, interface{}) {
	b := o.attempt()
	answered := false
	return func(lat sim.Duration, _ interface{}) {
		if answered {
			o.dupes++
			return
		}
		answered = true
		o.complete(b, lat)
	}
}

// violation integrates the time the per-window p99 spent above the line. A
// window holding an op that was never answered is unboundedly late.
func (o *opLog) violation(sloMS float64, horizon sim.Time) float64 {
	slo := metrics.NewSLOTracker(sloMS)
	for b := range o.byBucket {
		end := (sim.Duration(b+1) * o.bucket).Seconds()
		if end > horizon.Seconds() {
			end = horizon.Seconds()
		}
		switch {
		case o.open[b] > 0:
			slo.Observe(end, math.Inf(1))
		case o.byBucket[b].Count() > 0:
			slo.Observe(end, o.byBucket[b].Percentile(99))
		}
	}
	slo.Finalize(horizon.Seconds())
	return slo.ViolationSeconds()
}

// chaosEnv carries out a fault schedule's crashes against the world, the
// way internal/experiments does: a machine crash is followed at once by
// the runtime re-homing the dead machine's actors.
type chaosEnv struct {
	w         *world
	floor     int
	protected map[cluster.MachineID]bool
	crashes   int
	ctlFails  int
}

func (e *chaosEnv) CrashMachine(id int) bool {
	mid := cluster.MachineID(id)
	if e.protected[mid] || e.w.c.UpCount() <= e.floor || !e.w.c.Fail(mid) {
		return false
	}
	e.w.rt.RecoverMachine(mid)
	e.crashes++
	return true
}

func (e *chaosEnv) RepairMachine(id int) bool { return e.w.c.Repair(cluster.MachineID(id)) }

func (e *chaosEnv) FailGEM(id int) bool {
	if !e.w.mgr.FailGEM(id) {
		return false
	}
	e.ctlFails++
	return true
}

func (e *chaosEnv) RecoverGEM(id int) bool { return e.w.mgr.RecoverGEM(id) }

func (e *chaosEnv) FailLEM(srv int) bool {
	if !e.w.mgr.FailLEM(cluster.MachineID(srv)) {
		return false
	}
	e.ctlFails++
	return true
}

func (e *chaosEnv) RecoverLEM(srv int) bool { return e.w.mgr.RecoverLEM(cluster.MachineID(srv)) }

// memNow reads the allocator's counters.
func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// subResult is one sub-seed's outcome.
type subResult struct {
	Seed int64
	// SetupS, RunWallS and RunCPUS are corrected for the machine's speed
	// (see yardstick.go); SetupRawS and RunRawS are the clock's own reading.
	SetupS    float64
	SetupRawS float64
	WarmupS   float64 // the warm-up world's part of SetupRawS
	RunWallS  float64
	RunRawS   float64
	RunCPUS   float64
	RunAllocB uint64
	Mallocs   uint64
	GCCycles  uint32
	ReportS   float64 // the part of the run phase spent on percentiles and the SLO integral

	Events    uint64
	PeakQueue int
	P50, P99  float64
	ViolS     float64
	ServerS   float64
	Attempted int64
	Completed int64
	Digest    string
	Problems  []string
}

// pass is one execution of a workload in this process: its sub-seeds back
// to back, traced or not.
type pass struct {
	wl     *spec
	seed   int64
	sc     scale
	traced bool
	spans  *spanLog // nil in an untraced pass

	watch  *stopwatch
	pooled metrics.Histogram // ms, the op samples of every sub-seed
	subs   []subResult
	last   *world // the final sub-seed's world, for the isolated per-layer timings
	layer  map[string]float64
	// encodeBad is set when the trace export's line count is wrong.
	encodeBad string
	// graph memoizes the generated graph the current sub-seeds share.
	graph *graphInput
}

// subSeeds is how many worlds the pass runs: the workload's own count, or
// fewer on the shrunken worlds of the package's tests.
func (p *pass) subSeeds() int { return scaled(p.wl.SubSeeds, p.sc.World, 1) }

// subSeed derives the i-th world's seed from the pass's.
func (p *pass) subSeed(i int) int64 { return p.seed*1_000_003 + int64(i)*7919 + 17 }

// runSub runs the i-th sub-seed: set-up, then the timed run.
func (p *pass) runSub(i int) {
	seed := p.subSeed(i)
	res := subResult{Seed: seed}

	// Set-up: everything before the first timed simulated event. The
	// previous world is garbage by now; collecting it here keeps it out of
	// this world's run phase and out of peak_rss_mb.
	runtime.GC()
	p.watch.start()
	var w *world
	p.spans.in("harness", "build", func() { w = p.wl.Build(p, seed, p.sc) })
	p.spans.in("harness", "warmup", func() {
		// A tenth-scale pass of the same workload, run to its end before the
		// measured world starts: it grows the heap and pages in the binary,
		// and keeps setup_s well above the clock's resolution on workloads
		// whose world is cheap to build. Its spans, counters and op samples
		// are thrown away with it.
		t0, y0 := time.Now(), p.watch.yardTime
		wp := *p // shares the stopwatch and the generated inputs, nothing else
		wp.spans, wp.traced, wp.pooled = nil, false, metrics.Histogram{}
		warm := p.wl.Build(&wp, seed, scale{Work: p.sc.Work / 10, World: p.sc.World})
		warm.run()
		warm.ops.violation(p.wl.SLOms, warm.horizon)
		res.WarmupS = (time.Since(t0) - (p.watch.yardTime - y0)).Seconds()
	})
	// Collect the warm-up world now, so that when the collector next runs
	// does not decide whether peak_rss_mb counts it.
	runtime.GC()
	w.actors0 = w.rt.NumActors()
	p.watch.lap()
	res.SetupS, _, res.SetupRawS = p.watch.seconds()
	m1 := memNow()
	p.watch.start()

	// Run: the simulation to its fixed horizon, then the results.
	p.spans.in("sim", "Kernel.Run", w.run)
	r0 := time.Now()
	p.spans.in("metrics", "percentiles+SLO", func() {
		res.P50 = w.ops.lat.Percentile(50)
		res.P99 = w.ops.lat.Percentile(99)
		res.ViolS = w.ops.violation(p.wl.SLOms, w.horizon)
		if i == p.subSeeds()-1 {
			p.pooled.Percentile(99) // sorts the pool inside the run phase
		}
	})
	res.ReportS = time.Since(r0).Seconds()
	if w.ring != nil {
		p.spans.in("trace", "trace.WriteJSONL", w.encodeTrace)
	}
	p.watch.lap()
	res.RunWallS, res.RunCPUS, res.RunRawS = p.watch.seconds()
	m2 := memNow()
	res.RunAllocB = m2.TotalAlloc - m1.TotalAlloc
	res.Mallocs = m2.Mallocs - m1.Mallocs
	res.GCCycles = m2.NumGC - m1.NumGC

	st := w.k.Stats()
	res.Events, res.PeakQueue = st.Fired, st.PeakQueue
	res.ServerS = w.serverSec
	res.Attempted, res.Completed = w.ops.attempted, w.ops.completed
	res.Problems = w.problems()
	res.Digest = w.digest(&res)

	p.subs = append(p.subs, res)
	if p.traced {
		p.collect(w, &res)
	}
	p.last = w
}

// run is the run phase's simulation part, timed in slices.
func (w *world) run() {
	w.pulse()
	w.drive()
	// A workload's end can fall inside a migration the EMR began just before
	// it: about one pagerank world in a thousand ends that way. Let such a
	// transfer commit, so that a migration the output checks still find open
	// is one that is stuck. No world without one takes a single step here.
	for limit := w.k.Now() + sim.Time(drainFor); w.rt.InFlightMigrations() > 0 && w.k.Now() < limit && w.k.Step(); {
	}
	w.ended = true
}

// drainFor bounds that wait in virtual time, so that a migration that never
// commits is reported rather than waited for.
const drainFor = 60 * sim.Second

// problems runs the output checks every workload shares, then its own.
func (w *world) problems() []string {
	var bad []string
	want := w.actors0
	if w.actorsWant != nil {
		want = w.actorsWant()
	}
	if got := w.rt.NumActors(); got != want {
		bad = append(bad, fmt.Sprintf("actor count not conserved: %d live, want %d", got, want))
	}
	if n := w.rt.InFlightMigrations(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d migrations stuck in flight", n))
	}
	// One visit of the directory, not one scan of it per machine: the
	// fleet workload has 131k actors on 1k machines.
	on := make(map[cluster.MachineID]int)
	w.rt.ForEachActor(func(info actor.Info) { on[info.Server]++ })
	for _, m := range w.c.Machines() {
		if !m.Up() && on[m.ID] > 0 {
			bad = append(bad, fmt.Sprintf("%d actors homed on down machine %d", on[m.ID], m.ID))
		}
		delete(on, m.ID)
	}
	for srv, n := range on {
		bad = append(bad, fmt.Sprintf("%d actors homed on unknown machine %d", n, srv))
	}
	if w.ops.dupes != 0 {
		bad = append(bad, fmt.Sprintf("%d requests completed more than once", w.ops.dupes))
	}
	unanswered := 0
	for _, n := range w.ops.open {
		unanswered += n
	}
	if w.ops.attempted != w.ops.completed+int64(unanswered) {
		bad = append(bad, fmt.Sprintf("ops do not add up: %d attempted, %d completed, %d unanswered",
			w.ops.attempted, w.ops.completed, unanswered))
	}
	if w.ring != nil && w.ring.Dropped() != 0 {
		bad = append(bad, fmt.Sprintf("trace ring dropped %d records", w.ring.Dropped()))
	}
	if w.check != nil {
		bad = append(bad, w.check()...)
	}
	return bad
}

// digest hashes what the simulation did: a change that claims only a
// host-time gain must leave it as it was.
func (w *world) digest(r *subResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "events=%d attempted=%d completed=%d ", r.Events, r.Attempted, r.Completed)
	fmt.Fprintf(&sb, "migrations=%d failed=%d shed=%d ", w.rt.Migrations(), w.rt.FailedMigrations(), w.rt.ShedRequests())
	if w.mgr != nil {
		fmt.Fprintf(&sb, "emr=%+v ", w.mgr.Stats)
	}
	for _, v := range []float64{r.P50, r.P99, r.ViolS, r.ServerS} {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(' ')
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))[:16]
}
