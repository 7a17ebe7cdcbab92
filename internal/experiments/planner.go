package experiments

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/apps/halo"
	"plasma/internal/apps/workload"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/metrics"
	"plasma/internal/sim"
)

// The plan_* family holds the planning round (DESIGN.md §11) to the two
// scenarios that a per-intent greedy planner fails: single-axis rules
// fighting each other, and load-only targeting that ignores where an
// actor's traffic lands. The greedy loop this repository once shipped beside
// the round is gone; its last recorded numbers at seed 1 are the absolute
// lines the family's tests assert (planner_test.go).

// planPagerankPolicy adds a memory band to the paper's CPU band: with
// vertex state sized realistically, the two rules constrain the same
// workers on different axes.
const planPagerankPolicy = `
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Worker}, cpu);
server.mem.perc > 80 or server.mem.perc < 60 =>
    balance({Worker}, mem);
`

// planPagerank is a memory-heavy Fig. 6a variant: 32 PageRank workers with
// large vertex state, randomly placed on 8 m5.large servers, governed by a
// CPU band and a memory band. A planner that takes each rule on its own
// axis against the same static snapshot lets a CPU move overload the
// target's memory (and vice versa), and the rules undo each other across
// periods — every bounce a multi-second state serialize. The round packs
// both intents against one shared (cpu, mem, net) projection, so a target
// must fit on every axis before a move is planned.
func planPagerank(cfg Config, su prSetup, r *Result) {
	r.Header = []string{"Converged iteration time", "Migrations"}
	su.state = 4 << 20 // ~1.5 GB per worker: memory is a real axis
	seed := cfg.Seed

	a := pagerankArm(su, cfg.input(su, seed), 8, randomPlacement(seed*7+1, su.workers, 8), 30*sim.Minute)
	a.policy, a.emr = planPagerankPolicy, emr.Config{Period: su.period}
	out := run(cfg, seed, a.scenario)

	conv, migs := a.app.ConvergedTime(), out.M.Stats.ExecutedMigrations
	r.addRow(conv.String(), fmt.Sprintf("%d", migs))
	r.Summary["converged_ms"] = float64(conv) / float64(sim.Millisecond)
	r.Summary["migrations"] = float64(migs)
	r.notef("cpu and mem rules pack one shared projection; the per-intent greedy loop this replaced bounced workers between the axes (36.1 s, 3,699 migrations at seed 1)")
}

// planHalo is a skewed Fig. 11c variant: routers crowded on a sixteenth of
// the fleet with CPU-hot decryption, three quarters of the clients joining
// the four hottest sessions, and each client sticky to one router (the usual
// sticky load-balancer front end), so every router forwards mostly to one
// hot session. When the router-balance rule spreads routers out, targeting
// the quietest server regardless of traffic leaves most heartbeats a remote
// hop from their session; the round's affinity scoring places each router
// where the sessions it forwards to actually live.
//
// planHaloPolicy tightens fig11's router band ([80,60] -> [40,15]) so the
// crowded routers actually spread across the fleet instead of stopping at
// the first server that dips under 80%, and keeps the paper's interaction
// rule. More movers means the target choice — affinity vs least-loaded —
// decides more of the fleet's layout.
const planHaloPolicy = `
server.cpu.perc > 40 or server.cpu.perc < 15 =>
    balance({Router}, cpu);
` + halo.InterPolicySrc

func planHalo(cfg Config, su haloSize, r *Result) {
	r.Header = []string{"Mean latency", "Final latency", "Settle time"}
	hotSessions := 4

	// Accentuate the remote hop further than fig11 (20 ms): the skewed
	// scenario is about where routers sit relative to their traffic, so
	// the cross-server hop must dominate per-message compute. All routers
	// crowd a sixteenth of the fleet so the balance rule has real work even
	// at the gentler heartbeat rate.
	h := &haloFleet{servers: su.servers, routerSrvs: su.servers / 16, routers: su.routers, sessions: su.sessions,
		latency: 4 * haloBaseLatency, decrypt: true}
	sc := h.arm()
	sc.policy, sc.emr = planHaloPolicy, emr.Config{Period: su.period}

	rec := workload.NewRecorder(20 * sim.Second)
	sc.horizon = su.total
	sc.load = func(w *core.World) {
		for i := 0; i < su.clients; i++ {
			// Popularity skew: three quarters of the clients pile into the
			// hot sessions; the rest spread round-robin.
			sess := i % su.sessions
			if i%4 != 0 {
				sess = i % hotSessions
			}
			w.K.At(sim.Time(i)*sim.Time(su.total)/sim.Time(2*su.clients), func() {
				router := h.app.Routers[i%len(h.app.Routers)]
				h.join(w, i, sess, 2*su.heartbeat, func(cl *actor.Client, p actor.Ref) bool {
					cl.Request(router, "heartbeat", p, 256, func(lat sim.Duration, _ interface{}) {
						rec.Record(w.K.Now(), lat)
					})
					return w.K.Now() < sim.Time(su.total)
				})
			})
		}
	}
	run(cfg, cfg.Seed, sc)

	series := rec.Series()
	mean := rec.Hist.Mean()
	final := series.TailMeanY(0.25)
	settle := settleTime(series, final)
	r.addRow(ms(mean), ms(final), fmt.Sprintf("%.0f s", settle))
	r.Summary["mean_ms"] = mean
	r.Summary["final_ms"] = final
	r.Summary["settle_s"] = settle
	r.notef("affinity-scored targets put each router beside the hot sessions it forwards to; settle time = first bucket after which latency stays within 20%% of final")
}

// settleTime finds the earliest bucket time (seconds) after which every
// bucket mean stays within 20% of the final level.
func settleTime(s *metrics.Series, final float64) float64 {
	if s.Len() == 0 {
		return 0
	}
	settleAt := s.X[0]
	settled := true
	for i := 0; i < s.Len(); i++ {
		d := s.Y[i] - final
		if d < 0 {
			d = -d
		}
		if d > 0.2*final {
			settled = false
		} else if !settled {
			settleAt = s.X[i]
			settled = true
		}
	}
	if !settled {
		return s.X[s.Len()-1]
	}
	return settleAt
}
