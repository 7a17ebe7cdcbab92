package experiments

import (
	"fmt"
	"math"
	"sort"

	"plasma/internal/actor"
	"plasma/internal/apps/streamagg"
	"plasma/internal/apps/workload"
	"plasma/internal/baseline"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

// The stream family is the Elasticutor comparison (PAPERS.md): a windowed
// per-key aggregation serving open-loop arrivals whose Zipf hot set drifts,
// run under two managers over the same fleet — PLASMA migrating whole
// key-range partitions under streamagg.PolicySrc, and an executor-level
// key-repartitioning baseline moving individual hot keys between pinned
// executors. The deliverable metric is recovery time after a skew shift:
// the first window whose p99 flush latency re-enters the SLO after the hot
// set rotates onto previously cold partitions (metrics.RecoveryTracker).

// Every stream arm runs the same job on the same fleet: 8 one-vCPU servers,
// 32 partitions over 2048 keys, a 256-key hot span carrying ~2/3 of a ~1500
// ev/s stream (≈3 servers of work) from 12 clients, 1 s tumbling windows and
// elasticity periods, a 50 ms window-latency SLO. Full mode stretches the
// horizon, not the fleet.
const (
	streamServers = 8
	streamParts   = 32 // plasma partition count (block size for hot-span interleave)
	streamKeys    = 2048
	streamSpan    = 256      // hot-span width in keys
	streamZipfS   = 1.05     // Zipf exponent (>1)
	streamPerKey  = 64 << 10 // state bytes per key
	streamEvCost  = 2 * sim.Millisecond
	streamPeriod  = sim.Second
	streamWindow  = sim.Second
	streamClients = 12
	streamEvery   = 10 * sim.Millisecond // each client's inter-event interval at rate 1
	streamSLOms   = 50
)

// streamSize sizes the stream ids (streamQuick, streamFull): the single-shift
// run stream_skew and stream_chaos share, and the longer run of stream_drift's
// rotations and stream_spike's rate spike.
type streamSize struct {
	total              sim.Duration
	shift              sim.Time
	long               sim.Duration
	drift              []sim.Time
	spikeFrom, spikeTo sim.Time
}

// streamOpts is what varies between streaming arms.
type streamOpts struct {
	mode   string // "plasma" or "elasticutor": which manager the arm deploys
	policy string
	total  sim.Duration
	rate   func(t sim.Time) float64 // nil = constant 1
	// uniform draws keys uniformly instead of from the Zipf (rate-spike
	// scenarios: the load problem is capacity, not skew).
	uniform bool
	shifts  []sim.Time // hot-set rotation instants
	rotate  int        // keys rotated per shift
	numGEMs int
	// PLASMA scale-out (stream_spike).
	scaleOut bool
	specs    []cluster.ProvSpec
	// Chaos schedule (stream_chaos).
	events []chaos.Event
	floor  int
}

// streamOut is one arm's measured outcome: what run reports plus the
// per-window flush latencies and the state the arm's manager moved.
type streamOut struct {
	outcome
	recs      []metrics.Recovery
	first     metrics.Recovery // recs[0], or the zero value when nothing shifted
	meanRec   float64
	recovered int
	violSec   float64
	steadyP99 float64 // p99 of the window before the first shift
	peakP99   float64 // worst finite window p99
	moves     int     // migrations (plasma) or handoff batches (elasticutor)
	movedMB   float64
	events    int64
	scaleOuts int
	p99       []float64 // each window's flush p99 (+Inf: a probe never returned)
}

// streamTrial runs one seeded streaming arm: open-loop clients draw keys from
// a drifting Zipf, events are one-way with a fixed CPU cost, and per-window
// flush probes measure the backlog in front of every window boundary. The
// same arrival stream (same seed, same draws) feeds whichever manager the
// mode deploys.
func streamTrial(cfg Config, seed int64, o streamOpts) streamOut {
	clientSite := cluster.MachineID(streamServers)
	servers := make([]cluster.MachineID, streamServers)
	for i := range servers {
		servers[i] = cluster.MachineID(i)
	}
	scfg := streamagg.Config{
		Keys: streamKeys, PerKeyBytes: streamPerKey,
		EvCost: streamEvCost, FlushCost: 500 * sim.Microsecond,
	}
	sc := scenario{machines: streamServers + 1, inst: cluster.M1Small, horizon: o.total, settle: 8 * sim.Second}

	// The job and its manager.
	var owner func(key int) actor.Ref
	var flushees []actor.Ref
	var plasma *streamagg.Plasma
	var elastic *streamagg.Elastic
	switch o.mode {
	case "plasma":
		sc.build = func(w *core.World) {
			plasma = streamagg.BuildPlasma(w.K, w.RT, servers, streamParts, scfg)
			owner, flushees = plasma.Owner, plasma.Parts
		}
		sc.policy, sc.emr = o.policy, emr.Config{
			Period: streamPeriod, NumGEMs: o.numGEMs, MinResidence: streamPeriod / 2,
			ScaleOut: o.scaleOut, MinServers: streamServers,
			InstanceType: cluster.M1Small, ProvSpecs: o.specs,
			// Grants evict the dedicated server's old residents so the hot
			// partition actually gets the CPU it was promised.
			ReserveEvacuate: true,
		}
		if len(o.events) > 0 {
			sc.faults = &faultPlan{floor: o.floor, protected: []cluster.MachineID{clientSite}, events: o.events}
		}
	case "elasticutor":
		sc.build = func(w *core.World) {
			elastic = streamagg.BuildElastic(w.K, w.RT, servers, clientSite, scfg)
			elastic.SetTracer(cfg.Trace)
			owner, flushees = elastic.Owner, elastic.Execs
		}
		sc.emr.Period = streamPeriod
		sc.baseline = func(*core.World) func(*epl.Snapshot) {
			e := &baseline.Elasticutor{App: elastic}
			return func(*epl.Snapshot) { e.Tick() }
		}
	default:
		panic("streamTrial: unknown mode " + o.mode)
	}

	stop := sim.Time(o.total)
	numWindows := int(stop / sim.Time(streamWindow))
	samples := make([][]float64, numWindows)
	sc.load = func(w *core.World) {
		k := w.K
		// The drifting arrival process, shared by every client.
		zipf := workload.NewZipfKeys(k, streamZipfS, streamKeys, streamSpan, streamKeys/streamParts)
		for _, at := range o.shifts {
			k.At(at, func() { zipf.Rotate(o.rotate) })
		}
		draw := zipf.Draw
		if o.uniform {
			draw = func() int { return k.Rand().Intn(streamKeys) }
		}
		cl := w.Client(clientSite)
		(&workload.OpenLoop{
			K: k, Clients: streamClients, Every: streamEvery, Rate: o.rate, Until: stop,
			Fire: func(int) {
				key := draw()
				cl.Send(owner(key), "ev", key, 128)
			},
		}).Start()

		// Window flush probes: at every window boundary, one flush request per
		// partition/executor; its end-to-end latency is the backlog the window's
		// results would wait behind. Samples land per window index.
		k.Every(streamWindow, func() bool {
			if k.Now() > stop {
				return false
			}
			win := int(k.Now()/sim.Time(streamWindow)) - 1
			if win < 0 || win >= numWindows {
				return k.Now() < stop
			}
			for _, ref := range flushees {
				cl.Request(ref, "flush", win, 64, func(lat sim.Duration, _ interface{}) {
					samples[win] = append(samples[win], float64(lat)/float64(sim.Millisecond))
				})
			}
			return true
		})
	}
	out := streamOut{outcome: run(cfg, seed, sc)}

	// Per-window p99 (with the small per-window sample sets this is the
	// worst partition's backlog); a window whose probes never returned is
	// unboundedly late.
	horizon := stop.Seconds()
	slo := metrics.NewSLOTracker(streamSLOms)
	rec := metrics.NewRecoveryTracker(streamSLOms)
	for _, at := range o.shifts {
		rec.Shift(at.Seconds())
	}
	out.p99 = make([]float64, numWindows)
	firstShiftW := numWindows
	if len(o.shifts) > 0 {
		firstShiftW = int(o.shifts[0] / sim.Time(streamWindow))
	}
	for w := 0; w < numWindows; w++ {
		p99 := math.Inf(1)
		if len(samples[w]) == len(flushees) {
			sort.Float64s(samples[w])
			idx := (99*len(samples[w]) + 99) / 100
			if idx > len(samples[w]) {
				idx = len(samples[w])
			}
			p99 = samples[w][idx-1]
		}
		out.p99[w] = p99
		end := (sim.Time(w) + 1) * sim.Time(streamWindow)
		slo.Observe(end.Seconds(), p99)
		rec.Observe(end.Seconds(), p99)
		if !math.IsInf(p99, 0) && p99 > out.peakP99 {
			out.peakP99 = p99
		}
		if w == firstShiftW-1 {
			out.steadyP99 = p99
		}
	}
	slo.Finalize(horizon)

	out.recs = rec.Recoveries(horizon)
	if len(out.recs) > 0 {
		out.first = out.recs[0]
	}
	out.meanRec, out.recovered = rec.MeanRecovery(horizon)
	out.violSec = slo.ViolationSeconds()
	if plasma != nil {
		out.events = plasma.Events
		out.moves = out.M.Stats.ExecutedMigrations
		out.movedMB = float64(out.moves) * float64(streamKeys/streamParts*streamPerKey) / (1 << 20)
		out.scaleOuts = out.M.Stats.ScaleOuts
	} else {
		out.events = elastic.Events
		out.moves = elastic.HandoffBatches
		out.movedMB = float64(elastic.HandoffBytes) / (1 << 20)
	}
	return out
}

// streamT converts seconds to virtual time (shift instants are fractional
// so they never coincide with a window boundary).
func streamT(sec float64) sim.Time { return sim.Time(sec * float64(sim.Second)) }

// streamBase is the single-shift arm the ids start from.
func streamBase(su streamSize, mode string) streamOpts {
	return streamOpts{
		mode: mode, policy: streamagg.PolicySrc, numGEMs: 2,
		total: su.total, shifts: []sim.Time{su.shift}, rotate: 1024,
	}
}

func recCell(r metrics.Recovery) string {
	if !r.Recovered {
		return fmt.Sprintf(">%.0f", r.Seconds)
	}
	return fmt.Sprintf("%.1f", r.Seconds)
}

// streamSkew is the head-to-head recovery race: one hot-set rotation mid
// run, PLASMA partition migration vs executor-level key repartitioning on
// identical fleets and identical arrival streams.
func streamSkew(cfg Config, su streamSize, r *Result) {
	r.Header = []string{"Manager", "Steady p99(ms)", "Peak p99(ms)", "Recovery(s)", "SLOviol(s)", "Moves", "MovedMB", "Events"}

	for _, mode := range []string{"plasma", "elasticutor"} {
		o := streamTrial(cfg, cfg.Seed, streamBase(su, mode))
		r.addRow(mode,
			fmt.Sprintf("%.1f", o.steadyP99), fmt.Sprintf("%.1f", o.peakP99),
			recCell(o.first), fmt.Sprintf("%.1f", o.violSec),
			fmt.Sprintf("%d", o.moves), fmt.Sprintf("%.1f", o.movedMB),
			fmt.Sprintf("%d", o.events))
		r.Summary["recovery_s_"+mode] = o.first.Seconds
		r.Summary["recovered_"+mode] = float64(boolToInt(o.first.Recovered))
		r.Summary["slo_viol_s_"+mode] = o.violSec
		r.Summary["moves_"+mode] = float64(o.moves)
		r.Summary["moved_mb_"+mode] = o.movedMB
	}
	r.note("identical seeds drive identical arrival streams; the race is purely detection + state movement + drain")
}

// streamDrift rotates the hot set repeatedly — the drifting-popularity
// regime where every shift restarts the race — and reports mean recovery.
func streamDrift(cfg Config, su streamSize, r *Result) {
	r.Header = []string{"Manager", "Recoveries(s)", "Recovered", "MeanRec(s)", "SLOviol(s)", "Moves", "MovedMB"}

	for _, mode := range []string{"plasma", "elasticutor"} {
		o := streamBase(su, mode)
		o.total, o.shifts = su.long, su.drift
		o.rotate = 512 // quarter turns: each shift lands on a fresh cold span
		out := streamTrial(cfg, cfg.Seed, o)
		cells := ""
		for i, rec := range out.recs {
			if i > 0 {
				cells += " "
			}
			cells += recCell(rec)
		}
		r.addRow(mode, cells,
			fmt.Sprintf("%d", out.recovered), fmt.Sprintf("%.1f", out.meanRec),
			fmt.Sprintf("%.1f", out.violSec), fmt.Sprintf("%d", out.moves),
			fmt.Sprintf("%.1f", out.movedMB))
		r.Summary["mean_recovery_s_"+mode] = out.meanRec
		r.Summary["recovered_"+mode] = float64(out.recovered)
		r.Summary["slo_viol_s_"+mode] = out.violSec
	}
	r.note("each rotation moves the hot span onto a cold server; mean recovery integrates detection lag over repeated shifts")
}

// streamSpikePolicy swaps the shipped policy's reserve rule for warm-pool
// scale-out: under a rate spike there is no skew to fix, only missing
// capacity — which executor-level repartitioning cannot add. Dedicating
// servers would only evacuate residents back into an already-full fleet.
const streamSpikePolicy = `
server.cpu.perc > 70 or server.cpu.perc < 15 => balance({Part}, cpu);
server.cpu.perc > 70 => provclass({warm});
`

// streamSpike is the window-spike scenario: the arrival rate multiplies
// mid-run with no rotation. PLASMA grows the fleet through the warm pool
// and rebalances onto it; the Elasticutor-style baseline can only shuffle
// keys over a saturated fixed fleet, so it recovers only when the spike
// ends. The comparison is honest about that asymmetry — capacity elasticity
// is exactly what executor-level repartitioning lacks.
func streamSpike(cfg Config, su streamSize, r *Result) {
	r.Header = []string{"Manager", "Recovery(s)", "SLOviol(s)", "ScaleOuts", "PeakSrv", "Moves"}

	for _, mode := range []string{"plasma", "elasticutor"} {
		o := streamBase(su, mode)
		o.total = su.long
		o.shifts = []sim.Time{su.spikeFrom} // the recovery clock starts at the spike
		o.rotate = 0
		// A rate spike is a capacity problem, not a skew problem: draw keys
		// uniformly so no single partition actor saturates (the Zipf head
		// alone would need more than one core at 4x), and run one GEM (as
		// burst_flash does) so the all-over fleet signal corroborates
		// trivially.
		o.uniform = true
		o.numGEMs = 1
		o.rate = func(t sim.Time) float64 {
			if t >= su.spikeFrom && t < su.spikeTo {
				return 4
			}
			return 1
		}
		if mode == "plasma" {
			o.policy = streamSpikePolicy
			o.scaleOut = true
			o.specs = burstSpec(cluster.WarmPool)
		}
		out := streamTrial(cfg, cfg.Seed, o)
		r.addRow(mode, recCell(out.first), fmt.Sprintf("%.1f", out.violSec),
			fmt.Sprintf("%d", out.scaleOuts), fmt.Sprintf("%d", out.peakSrv),
			fmt.Sprintf("%d", out.moves))
		r.Summary["recovery_s_"+mode] = out.first.Seconds
		r.Summary["slo_viol_s_"+mode] = out.violSec
		r.Summary["scale_outs_"+mode] = float64(out.scaleOuts)
	}
	r.note("no rotation: the spike adds load everywhere at once; only the manager that can add machines recovers before the spike ends")
}

// streamChaos composes the skew shift with a control-plane outage: GEM 0
// of 2 is down across the entire shift, so detection and migration must
// flow through the surviving GEM alone.
func streamChaos(cfg Config, su streamSize, r *Result) {
	r.Header = []string{"Seed", "CtlFails", "Recovery(s)", "SLOviol(s)", "Moves"}

	o := streamBase(su, "plasma")
	o.events = []chaos.Event{
		{At: su.shift - sim.Time(4*sim.Second), Op: chaos.FailGEM, Target: 0},
		{At: su.shift + sim.Time(12*sim.Second), Op: chaos.RecoverGEM, Target: 0},
	}
	o.floor = streamServers
	out := streamTrial(cfg, cfg.Seed, o)
	r.addRow(fmt.Sprintf("%d", cfg.Seed), fmt.Sprintf("%d", out.CtlFails),
		recCell(out.first), fmt.Sprintf("%.1f", out.violSec),
		fmt.Sprintf("%d", out.moves))
	r.Summary["recovery_s"] = out.first.Seconds
	r.Summary["recovered"] = float64(boolToInt(out.first.Recovered))
	r.Summary["ctl_fails"] = float64(out.CtlFails)
	r.Summary["slo_viol_s"] = out.violSec
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
