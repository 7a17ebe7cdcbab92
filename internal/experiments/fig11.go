package experiments

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/apps/halo"
	"plasma/internal/apps/workload"
	"plasma/internal/baseline"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// haloBaseLatency accentuates remote-hop cost (the paper's measured
// latencies are dominated by cross-instance messaging).
const haloBaseLatency = 5 * sim.Millisecond

// haloSize sizes the Halo ids (haloQuick, haloFull). fig11a and fig11b run
// eight servers: a join round, their elasticity period, and fig11b's horizon.
// fig11c and plan_halo crowd routers on a larger fleet, fig11c's clients
// beating every heartbeat and plan_halo's half as often.
type haloSize struct {
	round, roundPeriod, firstRound      sim.Duration
	servers, routers, sessions, clients int
	period, total, heartbeat            sim.Duration
}

// haloFleet is the Halo deployment the fig11, plan_halo and chaos arms share:
// app servers 0..servers-1 with the routers crowded on the first routerSrvs of
// them and the sessions spread over all, then two client sites.
type haloFleet struct {
	servers, routerSrvs int
	routers, sessions   int
	latency             sim.Duration // cluster base latency (0 = the default)
	decrypt             bool
	app                 *halo.App // set when the arm's scenario builds it
}

// arm is the fleet as a scenario; the caller adds manager, load and horizon.
func (h *haloFleet) arm() scenario {
	return scenario{
		machines: h.servers + 2, inst: cluster.M1Small,
		build: func(w *core.World) {
			if h.latency > 0 {
				w.C.BaseLatency = h.latency
			}
			srvs := make([]cluster.MachineID, h.servers)
			for i := range srvs {
				srvs[i] = cluster.MachineID(i)
			}
			h.app = halo.Build(w.K, w.RT, srvs[:h.routerSrvs], srvs, h.routers, h.sessions)
			h.app.Decrypt = h.decrypt
		},
	}
}

// join adds client i's player to session sess at the current instant and
// calls beat from the client's site every `every` until it returns false.
func (h *haloFleet) join(w *core.World, i, sess int, every sim.Duration, beat func(cl *actor.Client, p actor.Ref) bool) actor.Ref {
	p := h.app.Join(sess)
	cl := w.Client(cluster.MachineID(h.servers + i%2))
	w.K.Every(every, func() bool { return beat(cl, p) })
	return p
}

// beats is the usual beat: a heartbeat through a random router, its latency
// into rec, repeated while the clock is short of until.
func (h *haloFleet) beats(w *core.World, rec *workload.Recorder, until sim.Time) func(*actor.Client, actor.Ref) bool {
	return func(cl *actor.Client, p actor.Ref) bool {
		h.app.Heartbeat(cl, p, func(lat sim.Duration) { rec.Record(w.K.Now(), lat) })
		return w.K.Now() < until
	}
}

// fig11a reproduces §5.7's interaction-rule comparison: 8 routers and 8
// sessions on 8 servers; 32 clients join in 4 rounds of 180 s; the
// interaction rule (colocate player with its session, placed correctly at
// creation) vs the frequency-based default rule (random placement, chase
// the chattiest peer each period). Period 70 s.
func fig11a(cfg Config, su haloSize, r *Result) {
	r.Header = []string{"Rule", "Mean latency", "p95 latency"}

	hbEvery := 500 * sim.Millisecond
	rounds, perRound := 4, 8

	arm := func(mode string) *workload.Recorder {
		h := &haloFleet{servers: 8, routerSrvs: 8, routers: 8, sessions: 8, latency: haloBaseLatency}
		sc := h.arm()
		switch mode {
		case "inter-rule":
			sc.policy, sc.emr = halo.InterPolicySrc, emr.Config{Period: su.roundPeriod}
		case "def-rule":
			sc.emr.Period = su.roundPeriod
			sc.baseline = func(w *core.World) func(*epl.Snapshot) {
				return (&baseline.FreqColocator{RT: w.RT}).Tick
			}
		}
		rec := workload.NewRecorder(10 * sim.Second)
		end := sim.Duration(rounds+1) * su.round
		sc.horizon = end
		sc.load = func(w *core.World) {
			for round := 0; round < rounds; round++ {
				for j := 0; j < perRound; j++ {
					joinAt := sim.Time(round)*sim.Time(su.round) +
						sim.Time(w.K.Rand().Int63n(int64(su.round)))
					idx := round*perRound + j
					w.K.At(joinAt, func() {
						h.join(w, idx, idx, hbEvery, h.beats(w, rec, sim.Time(end)))
					})
				}
			}
		}
		run(cfg, cfg.Seed, sc)
		return rec
	}

	for _, mode := range []string{"inter-rule", "def-rule"} {
		rec := arm(mode)
		mean := rec.Hist.Mean()
		p95 := rec.Hist.Percentile(95)
		r.addRow(mode, ms(mean), ms(p95))
		r.Summary["mean_ms_"+mode] = mean
		r.Summary["p95_ms_"+mode] = p95
	}
	if s := r.Summary; s["mean_ms_def-rule"] > 0 {
		s["defrule_p95_over_inter"] = s["p95_ms_def-rule"] / s["p95_ms_inter-rule"]
	}
}

// fig11b reproduces the per-client detail of the first round under the
// default rule: fortunately placed clients see low latency immediately;
// misplaced ones run ~35% higher until the first redistribution.
func fig11b(cfg Config, su haloSize, r *Result) {
	r.Header = []string{"Client", "Early latency", "Late latency", "Early/Late"}

	h := &haloFleet{servers: 8, routerSrvs: 8, routers: 8, sessions: 8, latency: haloBaseLatency}
	sc := h.arm()
	sc.emr.Period = su.roundPeriod
	sc.baseline = func(w *core.World) func(*epl.Snapshot) {
		return (&baseline.FreqColocator{RT: w.RT}).Tick
	}
	recs := make([]*workload.Recorder, 8)
	misplacedAtJoin := make([]bool, 8)
	sc.horizon = su.firstRound
	sc.load = func(w *core.World) {
		for i := range recs {
			recs[i] = workload.NewRecorder(10 * sim.Second)
			p := h.join(w, i, i, 500*sim.Millisecond, h.beats(w, recs[i], sim.Time(su.firstRound)))
			misplacedAtJoin[i] = w.RT.ServerOf(p) != w.RT.ServerOf(h.app.SessionOf(p))
		}
	}
	run(cfg, cfg.Seed, sc)

	misplacedEarly, placedEarly := 0.0, 0.0
	nm, np := 0, 0
	ratioSum, nr := 0.0, 0
	for i := 0; i < 8; i++ {
		s := recs[i].Series()
		if s.Len() == 0 {
			continue
		}
		early := s.Y[0]
		late := s.TailMeanY(0.3)
		ratio := early / late
		r.addRow(fmt.Sprintf("c%d", i+1), ms(early), ms(late), fmt.Sprintf("%.2f", ratio))
		if misplacedAtJoin[i] {
			misplacedEarly += early
			nm++
			ratioSum += ratio
			nr++
		} else {
			placedEarly += early
			np++
		}
	}
	if nm > 0 && np > 0 {
		penalty := (misplacedEarly/float64(nm) - placedEarly/float64(np)) / (placedEarly / float64(np)) * 100
		r.Summary["misplaced_early_penalty_pct"] = penalty
	}
	if nr > 0 {
		// Early-vs-settled ratio for misplaced clients: the paper's 30-40ms
		// down to 20ms after the first redistribution is a ~1.35-2.0x drop.
		r.Summary["misplaced_early_over_late"] = ratioSum / float64(nr)
	}
	r.Summary["misplaced_clients"] = float64(nm)
}

// fig11c reproduces the resource-rule experiment: 64 sessions (one per
// server) and 32 routers crowded on 8 of 64 servers, with router
// decryption making those servers hot; 128 clients join over time. The
// router-balance rule spreads routers; runs with 1, 2, and 4 GEMs compare
// the impact of GEM count on latency.
func fig11c(cfg Config, su haloSize, r *Result) {
	r.Header = []string{"GEMs", "Peak latency", "Final latency", "Router servers"}

	for _, gems := range []int{1, 2, 4} {
		h := &haloFleet{servers: su.servers, routerSrvs: su.servers / 8, routers: su.routers, sessions: su.sessions,
			latency: haloBaseLatency, decrypt: true}
		sc := h.arm()
		sc.policy, sc.emr = halo.FullPolicySrc, emr.Config{Period: su.period, NumGEMs: gems}
		rec := workload.NewRecorder(20 * sim.Second)
		sc.horizon = su.total
		sc.load = func(w *core.World) {
			for i := 0; i < su.clients; i++ {
				w.K.At(sim.Time(i)*sim.Time(su.total)/sim.Time(2*su.clients), func() {
					h.join(w, i, i, su.heartbeat, h.beats(w, rec, sim.Time(su.total)))
				})
			}
		}
		out := run(cfg, cfg.Seed, sc)

		key := fmt.Sprintf("%dgem", gems)
		series := rec.Series()
		peak := series.MaxY()
		final := series.TailMeanY(0.25)
		routerSrvSet := map[cluster.MachineID]bool{}
		for _, rr := range h.app.Routers {
			routerSrvSet[out.RT.ServerOf(rr)] = true
		}
		r.addRow(fmt.Sprintf("%d", gems), ms(peak), ms(final), fmt.Sprintf("%d", len(routerSrvSet)))
		r.Summary["peak_ms_"+key] = peak
		r.Summary["final_ms_"+key] = final
		r.Summary["router_servers_"+key] = float64(len(routerSrvSet))
	}
}
