package experiments

import (
	"fmt"
	"math"

	"plasma/internal/actor"
	"plasma/internal/apps/workload"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
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

// burstOpts parameterizes one burst run.
type burstOpts struct {
	servers   int // initial app servers (client site is one more)
	frontends int
	// class is the actor class the frontends are spawned as, so the run's
	// policy can address them ("Frontend" when empty; the counterexample
	// replays use "Worker" to match the lint corpus).
	class  string
	policy string
	specs     []cluster.ProvSpec
	numGEMs   int
	period    sim.Duration
	total     sim.Duration
	clients   int
	baseEvery sim.Duration
	// rate is the arrival-rate multiplier at virtual time t (1 = baseline;
	// a flash crowd returns 10-100 during its window).
	rate       func(t sim.Time) float64
	reqCost    sim.Duration
	mailboxCap int
	sloMS      float64
	scaleIn    bool
	minServers int
	// events, when set, is a chaos schedule applied through the world's
	// chaos.Env (burst scenarios compose with the chaos layer).
	events []chaos.Event
	floor  int
}

// burstOut is one burst run's measured outcome.
type burstOut struct {
	violSec    float64
	episodes   int
	shed       int64
	p95        float64
	meanMS     float64
	served     int
	scaleOuts  int
	scaleIns   int
	failedProv int
	provisions int
	peakSrv    int
	finalSrv   int
	crashes    int
	ctlFails   int
	latSeries  *metrics.Series
	violations []string
}

// burstRun drives one seeded burst scenario end to end: open-loop clients
// whose arrival rate follows opts.rate, bounded mailboxes shedding
// overload, scale-out through the provisioning spectrum, optional chaos
// schedule, and the SLO-violation integral over the reply-latency signal.
func burstRun(cfg Config, seed int64, o burstOpts) burstOut {
	clientSite := cluster.MachineID(o.servers)
	w := cfg.world(seed, o.servers+1, cluster.M1Small)
	k, c, rt := w.K, w.C, w.RT
	rt.MailboxCap = o.mailboxCap

	class := o.class
	if class == "" {
		class = "Frontend"
	}
	fes := make([]actor.Ref, o.frontends)
	for i := range fes {
		fes[i] = rt.SpawnOn(class, &burstFrontend{cost: o.reqCost}, cluster.MachineID(i%o.servers))
	}

	m := w.Manage(epl.MustParse(o.policy), emr.Config{
		Period: o.period, NumGEMs: o.numGEMs, MinResidence: o.period / 2,
		ScaleOut: true, ScaleIn: o.scaleIn, MinServers: o.minServers,
		InstanceType: cluster.M1Small, ProvSpecs: o.specs,
	})

	peakSrv := c.UpCount()
	m.OnTick = func(int, *epl.Snapshot) {
		if up := c.UpCount(); up > peakSrv {
			peakSrv = up
		}
	}

	if len(o.events) > 0 {
		w.Chaos(seed, o.floor, clientSite).Apply(k, w, o.events)
	}
	m.Start()

	slo := metrics.NewSLOTracker(o.sloMS)
	rec := workload.NewRecorder(sim.Second)
	served := 0
	stop := sim.Time(o.total)
	for i := 0; i < o.clients; i++ {
		i := i
		cl := actor.NewClient(rt, clientSite)
		next := i // round-robin frontend pick, staggered per client
		var loop func()
		loop = func() {
			if k.Now() >= stop {
				return
			}
			target := fes[next%len(fes)]
			next++
			cl.Request(target, "req", nil, 256, func(lat sim.Duration, _ interface{}) {
				ms := float64(lat) / float64(sim.Millisecond)
				slo.Observe(k.Now().Seconds(), ms)
				rec.Record(k.Now(), lat)
				served++
			})
			iv := sim.Duration(float64(o.baseEvery) / o.rate(k.Now()))
			if iv < sim.Microsecond {
				iv = sim.Microsecond
			}
			k.After(iv, loop)
		}
		k.At(sim.Time(i)*sim.Time(o.baseEvery)/sim.Time(o.clients), loop)
	}

	w.Drain(stop, 2*o.period)
	slo.Finalize(k.Now().Seconds())

	out := burstOut{
		violSec: slo.ViolationSeconds(), episodes: slo.Episodes(),
		shed: rt.ShedRequests(), p95: rec.Hist.Percentile(95), meanMS: rec.Hist.Mean(),
		served:    served,
		scaleOuts: m.Stats.ScaleOuts, scaleIns: m.Stats.ScaleIns,
		failedProv: m.Stats.FailedProvisions, provisions: c.Provisions(),
		peakSrv: peakSrv, finalSrv: c.UpCount(),
		latSeries:  rec.Series(),
		violations: w.Invariants(),
		crashes:    w.Crashes, ctlFails: w.CtlFails,
	}
	if up := c.UpCount(); up > out.peakSrv {
		out.peakSrv = up
	}
	return out
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
	r.Header = []string{"Class", "SLOviol(s)", "Episodes", "Shed", "Served", "p95(ms)", "ScaleOuts", "ProvFails", "PeakSrv", "Invariants"}

	total := 60 * sim.Second
	clients, spike := 12, 10.0
	if cfg.Full {
		total, clients, spike = 120*sim.Second, 24, 20.0
	}
	for _, pc := range []cluster.ProvClass{cluster.WarmPool, cluster.Container, cluster.VM} {
		o := burstRun(cfg, cfg.seed(), burstOpts{
			servers: 4, frontends: 12,
			policy:  fmt.Sprintf(burstPolicyFmt, pc),
			specs:   burstSpec(pc),
			numGEMs: 1, period: 2 * sim.Second, total: total,
			clients: clients, baseEvery: 100 * sim.Millisecond,
			rate:    flashRate(sim.Time(15*sim.Second), sim.Time(35*sim.Second), spike),
			reqCost: 6 * sim.Millisecond, mailboxCap: 32, sloMS: 50,
			minServers: 4,
		})
		verdict := "ok"
		if len(o.violations) > 0 {
			verdict = fmt.Sprintf("%v", o.violations)
		}
		r.addRow(pc.String(),
			fmt.Sprintf("%.1f", o.violSec), fmt.Sprintf("%d", o.episodes),
			fmt.Sprintf("%d", o.shed), fmt.Sprintf("%d", o.served),
			fmt.Sprintf("%.1f", o.p95), fmt.Sprintf("%d", o.scaleOuts),
			fmt.Sprintf("%d", o.failedProv), fmt.Sprintf("%d", o.peakSrv), verdict)
		r.Summary["slo_viol_s_"+pc.String()] = o.violSec
		r.Summary["shed_"+pc.String()] = float64(o.shed)
		r.Summary["scale_outs_"+pc.String()] = float64(o.scaleOuts)
		r.Summary["invariant_violations_"+pc.String()] = float64(len(o.violations))
		r.Series["latency_"+pc.String()] = o.latSeries
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
	r.Header = []string{"Seed", "SLOviol(s)", "Shed", "ScaleOuts", "ScaleIns", "PeakSrv", "FinalSrv", "Invariants"}

	total := 90 * sim.Second
	if cfg.Full {
		total = 240 * sim.Second
	}
	day := 60 * sim.Second
	outs := runSeeds(cfg, 3, func(_ int, seed int64) burstOut {
		return burstRun(cfg, seed, burstOpts{
			servers: 3, frontends: 9,
			policy:  fmt.Sprintf(burstPolicyFmt, "warm, container"),
			specs:   append(burstSpec(cluster.WarmPool), burstSpec(cluster.Container)...),
			numGEMs: 1, period: 3 * sim.Second, total: total,
			clients: 10, baseEvery: 60 * sim.Millisecond,
			rate: func(t sim.Time) float64 {
				return math.Max(0.25, 1+2.2*math.Sin(2*math.Pi*float64(t)/float64(day)))
			},
			reqCost: 6 * sim.Millisecond, mailboxCap: 32, sloMS: 50,
			scaleIn: true, minServers: 3,
		})
	})
	var viol, shed, outsN, ins float64
	bad := 0
	for i, o := range outs {
		verdict := "ok"
		if len(o.violations) > 0 {
			verdict = fmt.Sprintf("%v", o.violations)
			bad += len(o.violations)
		}
		r.addRow(fmt.Sprintf("%d", cfg.seed()+int64(i)),
			fmt.Sprintf("%.1f", o.violSec), fmt.Sprintf("%d", o.shed),
			fmt.Sprintf("%d", o.scaleOuts), fmt.Sprintf("%d", o.scaleIns),
			fmt.Sprintf("%d", o.peakSrv), fmt.Sprintf("%d", o.finalSrv), verdict)
		viol += o.violSec
		shed += float64(o.shed)
		outsN += float64(o.scaleOuts)
		ins += float64(o.scaleIns)
	}
	n := float64(len(outs))
	r.Summary["mean_slo_viol_s"] = viol / n
	r.Summary["mean_shed"] = shed / n
	r.Summary["mean_scale_outs"] = outsN / n
	r.Summary["mean_scale_ins"] = ins / n
	r.Summary["invariant_violations"] = float64(bad)
	r.notef("the fleet grows on the wave's crest and is reclaimed in the trough; violation time concentrates in the first crest before capacity catches up")
	return r
}

// BurstRegion is correlated region failover: half the fleet (region A)
// crashes in the same instant, dumping its actors and load onto the
// surviving region, which saturates and must both shed and re-provision
// through the spectrum. Region A repairs 30 seconds later.
func BurstRegion(cfg Config) *Result {
	r := newResult("burst_region", "Correlated region failover onto survivors")
	r.Header = []string{"Seed", "Crashes", "SLOviol(s)", "Shed", "ScaleOuts", "ProvFails", "PeakSrv", "Invariants"}

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
	outs := runSeeds(cfg, 2, func(_ int, seed int64) burstOut {
		return burstRun(cfg, seed, burstOpts{
			servers: servers, frontends: 16,
			policy:  policy,
			specs:   append(burstSpec(cluster.WarmPool), burstSpec(cluster.Container)...),
			numGEMs: 2, period: 2 * sim.Second, total: total,
			clients: 16, baseEvery: 18 * sim.Millisecond,
			rate:    func(sim.Time) float64 { return 1 },
			reqCost: 6 * sim.Millisecond, mailboxCap: 32, sloMS: 50,
			minServers: 2,
			events:     events, floor: 2,
		})
	})
	var viol, shed, crashes float64
	bad := 0
	for i, o := range outs {
		verdict := "ok"
		if len(o.violations) > 0 {
			verdict = fmt.Sprintf("%v", o.violations)
			bad += len(o.violations)
		}
		r.addRow(fmt.Sprintf("%d", cfg.seed()+int64(i)),
			fmt.Sprintf("%d", o.crashes), fmt.Sprintf("%.1f", o.violSec),
			fmt.Sprintf("%d", o.shed), fmt.Sprintf("%d", o.scaleOuts),
			fmt.Sprintf("%d", o.failedProv), fmt.Sprintf("%d", o.peakSrv), verdict)
		viol += o.violSec
		shed += float64(o.shed)
		crashes += float64(o.crashes)
	}
	n := float64(len(outs))
	r.Summary["mean_slo_viol_s"] = viol / n
	r.Summary["mean_shed"] = shed / n
	r.Summary["mean_crashes"] = crashes / n
	r.Summary["invariant_violations"] = float64(bad)
	r.notef("survivors absorb the dead region's actors (runtime re-homing) and its load; warm-pool scale-out plus shedding carries the gap until repair")
	return r
}

// BurstChaos composes a flash crowd with a GEM crash covering it: GEM 0
// dies before the spike starts and recovers after it ends, so the spike
// must be absorbed with half the control plane gone — the surviving GEM's
// self-corroborated scale-out still grows the fleet.
func BurstChaos(cfg Config) *Result {
	r := newResult("burst_chaos", "Flash crowd during a GEM crash (chaos-composed burst)")
	r.Header = []string{"Seed", "CtlFails", "SLOviol(s)", "Shed", "ScaleOuts", "PeakSrv", "Invariants"}

	// Same workload as burst_flash's warm row, so the delta between the
	// two isolates the GEM crash's cost.
	total := 60 * sim.Second
	spike := 10.0
	if cfg.Full {
		total, spike = 120*sim.Second, 20.0
	}
	events := []chaos.Event{
		{At: sim.Time(12 * sim.Second), Op: chaos.FailGEM, Target: 0},
		{At: sim.Time(40 * sim.Second), Op: chaos.RecoverGEM, Target: 0},
	}
	outs := runSeeds(cfg, 2, func(_ int, seed int64) burstOut {
		return burstRun(cfg, seed, burstOpts{
			servers: 4, frontends: 12,
			policy:  fmt.Sprintf(burstPolicyFmt, "warm, container"),
			specs:   append(burstSpec(cluster.WarmPool), burstSpec(cluster.Container)...),
			numGEMs: 2, period: 2 * sim.Second, total: total,
			clients: 12, baseEvery: 100 * sim.Millisecond,
			rate:    flashRate(sim.Time(15*sim.Second), sim.Time(35*sim.Second), spike),
			reqCost: 6 * sim.Millisecond, mailboxCap: 32, sloMS: 50,
			minServers: 4,
			events:     events, floor: 2,
		})
	})
	var viol, shed, so, ctl float64
	bad := 0
	for i, o := range outs {
		verdict := "ok"
		if len(o.violations) > 0 {
			verdict = fmt.Sprintf("%v", o.violations)
			bad += len(o.violations)
		}
		r.addRow(fmt.Sprintf("%d", cfg.seed()+int64(i)),
			fmt.Sprintf("%d", o.ctlFails), fmt.Sprintf("%.1f", o.violSec),
			fmt.Sprintf("%d", o.shed), fmt.Sprintf("%d", o.scaleOuts),
			fmt.Sprintf("%d", o.peakSrv), verdict)
		viol += o.violSec
		shed += float64(o.shed)
		so += float64(o.scaleOuts)
		ctl += float64(o.ctlFails)
	}
	n := float64(len(outs))
	r.Summary["mean_slo_viol_s"] = viol / n
	r.Summary["mean_shed"] = shed / n
	r.Summary["mean_scale_outs"] = so / n
	r.Summary["mean_ctl_fails"] = ctl / n
	r.Summary["invariant_violations"] = float64(bad)
	r.notef("with one of two GEMs down for the whole spike, the survivor's scale-out vote self-corroborates and the fleet still grows")
	return r
}
