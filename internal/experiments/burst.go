package experiments

import (
	"fmt"
	"math"

	"plasma/internal/actor"
	"plasma/internal/apps/workload"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

// The burst family stresses PLASMA with demand the paper never modeled:
// flash crowds (a 10-100x arrival spike in seconds), diurnal waves, and
// correlated region failover dumping a whole region's load onto the
// survivors — each against a *provisioning spectrum* (warm pool /
// container / VM classes with boot-time distributions and failure
// probabilities) instead of a single boot constant. Overload degrades
// gracefully: actor mailboxes are bounded, excess requests are shed, and
// the deliverable metric is SLO-violation-seconds (time the latency
// signal spent above the SLO), per Naskos et al.'s argument that
// elasticity guarantees should be quantified as violation time.

// burstFrontend is the request-serving actor: a fixed CPU cost per
// request, then a reply.
type burstFrontend struct {
	cost sim.Duration
}

func (f *burstFrontend) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method != "req" {
		return
	}
	ctx.Use(f.cost)
	ctx.Reply(nil, 512)
}

// Every burst arm serves the same request (a fixed CPU cost) against the
// same reply-latency SLO.
const (
	burstReqCost = 6 * sim.Millisecond
	burstSLOms   = 50
)

// burstOpts parameterizes one burst arm.
type burstOpts struct {
	servers   int // initial app servers (client site is one more)
	frontends int
	// class is the actor class the frontends are spawned as, so the arm's
	// policy can address them ("Frontend" when empty; the counterexample
	// replays use "Worker" to match the lint corpus).
	class  string
	policy string
	// emr carries Period, NumGEMs, ScaleIn, MinServers and ProvSpecs; every
	// arm scales out m1.small servers with half a period's residence.
	emr       emr.Config
	total     sim.Duration
	clients   int
	baseEvery sim.Duration
	// rate is the arrival-rate multiplier at virtual time t (1 = baseline;
	// a flash crowd returns 10-100 during its window).
	rate       func(t sim.Time) float64
	mailboxCap int
	// events, when set, is a chaos schedule applied through the world's
	// chaos.Env (burst scenarios compose with the chaos layer).
	events []chaos.Event
	floor  int
}

// burstOut is one burst arm's measured outcome: what run reports plus the
// reply-latency signal the clients recorded.
type burstOut struct {
	outcome
	slo    *metrics.SLOTracker
	rec    *workload.Recorder
	served int
}

// burstTrial runs one seeded burst arm: open-loop clients whose arrival rate
// follows o.rate, bounded mailboxes shedding overload, scale-out through the
// provisioning spectrum, optional chaos schedule, and the SLO-violation
// integral over the reply-latency signal.
func burstTrial(cfg Config, seed int64, o burstOpts) *burstOut {
	clientSite := cluster.MachineID(o.servers)
	class := o.class
	if class == "" {
		class = "Frontend"
	}
	ecfg := o.emr
	ecfg.MinResidence, ecfg.ScaleOut, ecfg.InstanceType = ecfg.Period/2, true, cluster.M1Small

	out := &burstOut{slo: metrics.NewSLOTracker(burstSLOms), rec: workload.NewRecorder(sim.Second)}
	fes := make([]actor.Ref, o.frontends)
	sc := scenario{
		machines: o.servers + 1, inst: cluster.M1Small,
		build: func(w *core.World) {
			w.RT.MailboxCap = o.mailboxCap
			for i := range fes {
				fes[i] = w.RT.SpawnOn(class, &burstFrontend{cost: burstReqCost}, cluster.MachineID(i%o.servers))
			}
		},
		policy: o.policy, emr: ecfg,
		load: func(w *core.World) {
			cl := w.Client(clientSite)
			next := make([]int, o.clients) // round-robin frontend pick, staggered per client
			for i := range next {
				next[i] = i
			}
			(&workload.OpenLoop{
				K: w.K, Clients: o.clients, Every: o.baseEvery, Rate: o.rate, Until: sim.Time(o.total),
				Fire: func(i int) {
					target := fes[next[i]%len(fes)]
					next[i]++
					cl.Request(target, "req", nil, 256, func(lat sim.Duration, _ interface{}) {
						out.slo.Observe(w.K.Now().Seconds(), float64(lat)/float64(sim.Millisecond))
						out.rec.Record(w.K.Now(), lat)
						out.served++
					})
				},
			}).Start()
		},
		horizon: o.total, settle: 2 * ecfg.Period,
	}
	if len(o.events) > 0 {
		sc.faults = &faultPlan{floor: o.floor, protected: []cluster.MachineID{clientSite}, events: o.events}
	}
	out.outcome = run(cfg, seed, sc)
	out.slo.Finalize(out.K.Now().Seconds())
	return out
}

// burstCol is one column of a burst table: its header, how to read it off an
// arm's outcome, the decimals it prints with, and — for the per-seed tables —
// the summary key its mean over the seeds is reported under ("" = none).
type burstCol struct {
	head string
	val  func(o *burstOut) float64
	prec int
	mean string
}

var (
	colViol      = burstCol{"SLOviol(s)", func(o *burstOut) float64 { return o.slo.ViolationSeconds() }, 1, "mean_slo_viol_s"}
	colEpisodes  = burstCol{"Episodes", func(o *burstOut) float64 { return float64(o.slo.Episodes()) }, 0, ""}
	colShed      = burstCol{"Shed", func(o *burstOut) float64 { return float64(o.RT.ShedRequests()) }, 0, "mean_shed"}
	colServed    = burstCol{"Served", func(o *burstOut) float64 { return float64(o.served) }, 0, ""}
	colP95       = burstCol{"p95(ms)", func(o *burstOut) float64 { return o.rec.Hist.Percentile(95) }, 1, ""}
	colScaleOuts = burstCol{"ScaleOuts", func(o *burstOut) float64 { return float64(o.M.Stats.ScaleOuts) }, 0, "mean_scale_outs"}
	colScaleIns  = burstCol{"ScaleIns", func(o *burstOut) float64 { return float64(o.M.Stats.ScaleIns) }, 0, "mean_scale_ins"}
	colProvFails = burstCol{"ProvFails", func(o *burstOut) float64 { return float64(o.M.Stats.FailedProvisions) }, 0, ""}
	colPeakSrv   = burstCol{"PeakSrv", func(o *burstOut) float64 { return float64(o.peakSrv) }, 0, ""}
	colFinalSrv  = burstCol{"FinalSrv", func(o *burstOut) float64 { return float64(o.C.UpCount()) }, 0, ""}
	colCrashes   = burstCol{"Crashes", func(o *burstOut) float64 { return float64(o.Crashes) }, 0, "mean_crashes"}
	colCtlFails  = burstCol{"CtlFails", func(o *burstOut) float64 { return float64(o.CtlFails) }, 0, "mean_ctl_fails"}
)

// plain is the column without a summarised mean.
func (c burstCol) plain() burstCol {
	c.mean = ""
	return c
}

// burstHeader is a burst table's header: the label column, the columns, the
// invariant sweep's verdict.
func burstHeader(label string, cols []burstCol) []string {
	h := []string{label}
	for _, c := range cols {
		h = append(h, c.head)
	}
	return append(h, "Invariants")
}

// burstRow adds one arm's row: its label, the columns, the sweep's verdict.
func burstRow(r *Result, label string, o *burstOut, cols []burstCol) {
	cells := []string{label}
	for _, c := range cols {
		cells = append(cells, fmt.Sprintf("%.*f", c.prec, c.val(o)))
	}
	r.addRow(append(cells, verdict(o.violations))...)
}

// burstSeedTable runs one arm at consecutive seeds and renders a row per
// seed, the mean of every column that names one, and the violation total.
func burstSeedTable(r *Result, cfg Config, seeds int, o burstOpts, cols []burstCol) {
	r.Header = burstHeader("Seed", cols)
	outs := runSeeds(cfg, seeds, func(_ int, seed int64) *burstOut { return burstTrial(cfg, seed, o) })
	bad := 0
	for i, o := range outs {
		burstRow(r, fmt.Sprintf("%d", cfg.seed()+int64(i)), o, cols)
		bad += len(o.violations)
		for _, c := range cols {
			if c.mean != "" {
				r.Summary[c.mean] += c.val(o)
			}
		}
	}
	for _, c := range cols {
		if c.mean != "" {
			r.Summary[c.mean] /= float64(len(outs))
		}
	}
	r.Summary["invariant_violations"] = float64(bad)
}

// flashRate is the flash-crowd arrival multiplier: baseline outside the
// window, spike-fold inside it.
func flashRate(from, to sim.Time, spike float64) func(sim.Time) float64 {
	return func(t sim.Time) float64 {
		if t >= from && t < to {
			return spike
		}
		return 1
	}
}

// burstSpec builds a single-class spectrum for the flash-crowd class
// comparison (warm pools stay finite; the fallible boot draws exercise
// the retry/backoff path).
func burstSpec(pc cluster.ProvClass) []cluster.ProvSpec {
	switch pc {
	case cluster.WarmPool:
		return []cluster.ProvSpec{{Class: cluster.WarmPool, BootMin: 50 * sim.Millisecond, BootMax: 200 * sim.Millisecond, FailProb: 0.01, Capacity: 8}}
	case cluster.Container:
		return []cluster.ProvSpec{{Class: cluster.Container, BootMin: 2 * sim.Second, BootMax: 5 * sim.Second, FailProb: 0.03, Capacity: -1}}
	default:
		return []cluster.ProvSpec{{Class: cluster.VM, BootMin: 30 * sim.Second, BootMax: 60 * sim.Second, FailProb: 0.05, Capacity: -1}}
	}
}

const burstPolicyFmt = `
server.cpu.perc > 70 or server.cpu.perc < 10 => balance({Frontend}, cpu);
server.cpu.perc > 70 => provclass({%s});
`

// BurstFlash is the flash-crowd scenario swept across the provisioning
// spectrum: a 20x arrival spike hits 15 seconds into a steady workload,
// and the only variable across rows is the provisioning class scale-out
// may draw from. Warm pools absorb the spike in milliseconds; VMs arrive
// after it is over, so the run rides out the crowd on shedding alone.
func BurstFlash(cfg Config) *Result {
	r := newResult("burst_flash", "Flash crowd vs provisioning class: SLO violation and shedding")
	cols := []burstCol{colViol, colEpisodes, colShed, colServed, colP95, colScaleOuts, colProvFails, colPeakSrv}
	r.Header = burstHeader("Class", cols)

	total := 60 * sim.Second
	clients, spike := 12, 10.0
	if cfg.Full {
		total, clients, spike = 120*sim.Second, 24, 20.0
	}
	for _, pc := range []cluster.ProvClass{cluster.WarmPool, cluster.Container, cluster.VM} {
		o := burstTrial(cfg, cfg.seed(), burstOpts{
			servers: 4, frontends: 12,
			policy: fmt.Sprintf(burstPolicyFmt, pc),
			emr:    emr.Config{Period: 2 * sim.Second, NumGEMs: 1, MinServers: 4, ProvSpecs: burstSpec(pc)},
			total:  total, clients: clients, baseEvery: 100 * sim.Millisecond,
			rate:       flashRate(sim.Time(15*sim.Second), sim.Time(35*sim.Second), spike),
			mailboxCap: 32,
		})
		burstRow(r, pc.String(), o, cols)
		r.Summary["slo_viol_s_"+pc.String()] = colViol.val(o)
		r.Summary["shed_"+pc.String()] = colShed.val(o)
		r.Summary["scale_outs_"+pc.String()] = colScaleOuts.val(o)
		r.Summary["invariant_violations_"+pc.String()] = float64(len(o.violations))
		r.Series["latency_"+pc.String()] = o.rec.Series()
	}
	r.notef("warm pool restores capacity inside the spike; VM boots land after it — the violation-seconds spread is the provisioning spectrum's effect")
	return r
}

// BurstDiurnal is the diurnal-wave scenario: arrivals swell and recede
// sinusoidally over each 60-second 'day', and the fleet should track the
// wave — growing through the warm/container spectrum on the way up,
// scaling back in on the way down. Three seeds, aggregated.
func BurstDiurnal(cfg Config) *Result {
	r := newResult("burst_diurnal", "Diurnal wave: fleet tracks a sinusoidal arrival rate")
	total := 90 * sim.Second
	if cfg.Full {
		total = 240 * sim.Second
	}
	day := 60 * sim.Second
	burstSeedTable(r, cfg, 3, burstOpts{
		servers: 3, frontends: 9,
		policy: fmt.Sprintf(burstPolicyFmt, "warm, container"),
		emr: emr.Config{Period: 3 * sim.Second, NumGEMs: 1, ScaleIn: true, MinServers: 3,
			ProvSpecs: append(burstSpec(cluster.WarmPool), burstSpec(cluster.Container)...)},
		total: total, clients: 10, baseEvery: 60 * sim.Millisecond,
		rate: func(t sim.Time) float64 {
			return math.Max(0.25, 1+2.2*math.Sin(2*math.Pi*float64(t)/float64(day)))
		},
		mailboxCap: 32,
	}, []burstCol{colViol, colShed, colScaleOuts, colScaleIns, colPeakSrv, colFinalSrv})
	r.notef("the fleet grows on the wave's crest and is reclaimed in the trough; violation time concentrates in the first crest before capacity catches up")
	return r
}

// BurstRegion is correlated region failover: half the fleet (region A)
// crashes in the same instant, dumping its actors and load onto the
// surviving region, which saturates and must both shed and re-provision
// through the spectrum. Region A repairs 30 seconds later.
func BurstRegion(cfg Config) *Result {
	r := newResult("burst_region", "Correlated region failover onto survivors")
	total := 80 * sim.Second
	if cfg.Full {
		total = 160 * sim.Second
	}
	servers := 8
	failAt := sim.Time(30 * sim.Second)
	var events []chaos.Event
	for i := 0; i < servers/2; i++ { // region A = machines 0..3, one instant
		events = append(events, chaos.Event{At: failAt, Op: chaos.CrashMachine, Target: i})
	}
	for i := 0; i < servers/2; i++ {
		events = append(events, chaos.Event{At: failAt + sim.Time(30*sim.Second), Op: chaos.RepairMachine, Target: i})
	}

	// Steady demand sized to ~2/3 of the full fleet (no trigger) but ~4/3
	// of the surviving region (sustained overload after the failover); the
	// wider 80% band keeps the healthy fleet quiet.
	policy := `
server.cpu.perc > 80 or server.cpu.perc < 10 => balance({Frontend}, cpu);
server.cpu.perc > 80 => provclass({warm, container});
`
	burstSeedTable(r, cfg, 2, burstOpts{
		servers: servers, frontends: 16,
		policy: policy,
		emr: emr.Config{Period: 2 * sim.Second, NumGEMs: 2, MinServers: 2,
			ProvSpecs: append(burstSpec(cluster.WarmPool), burstSpec(cluster.Container)...)},
		total: total, clients: 16, baseEvery: 18 * sim.Millisecond,
		mailboxCap: 32,
		events:     events, floor: 2,
	}, []burstCol{colCrashes, colViol, colShed, colScaleOuts.plain(), colProvFails, colPeakSrv})
	r.notef("survivors absorb the dead region's actors (runtime re-homing) and its load; warm-pool scale-out plus shedding carries the gap until repair")
	return r
}

// BurstChaos composes a flash crowd with a GEM crash covering it: GEM 0
// dies before the spike starts and recovers after it ends, so the spike
// must be absorbed with half the control plane gone — the surviving GEM's
// self-corroborated scale-out still grows the fleet.
func BurstChaos(cfg Config) *Result {
	r := newResult("burst_chaos", "Flash crowd during a GEM crash (chaos-composed burst)")
	// Same workload as burst_flash's warm row, so the delta between the
	// two isolates the GEM crash's cost.
	total := 60 * sim.Second
	spike := 10.0
	if cfg.Full {
		total, spike = 120*sim.Second, 20.0
	}
	burstSeedTable(r, cfg, 2, burstOpts{
		servers: 4, frontends: 12,
		policy: fmt.Sprintf(burstPolicyFmt, "warm, container"),
		emr: emr.Config{Period: 2 * sim.Second, NumGEMs: 2, MinServers: 4,
			ProvSpecs: append(burstSpec(cluster.WarmPool), burstSpec(cluster.Container)...)},
		total: total, clients: 12, baseEvery: 100 * sim.Millisecond,
		rate:       flashRate(sim.Time(15*sim.Second), sim.Time(35*sim.Second), spike),
		mailboxCap: 32,
		events: []chaos.Event{
			{At: sim.Time(12 * sim.Second), Op: chaos.FailGEM, Target: 0},
			{At: sim.Time(40 * sim.Second), Op: chaos.RecoverGEM, Target: 0},
		},
		floor: 2,
	}, []burstCol{colCtlFails, colViol, colShed, colScaleOuts, colPeakSrv})
	r.notef("with one of two GEMs down for the whole spike, the survivor's scale-out vote self-corroborates and the fleet still grows")
	return r
}
