package experiments

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/apps/halo"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/pagerank"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/sim"
)

// chaosRun is the deterministic fault-injection harness: PageRank, the Media
// Service, and Halo each run under randomized-but-seeded fault schedules —
// control-plane message drops/delays/duplicates plus machine, GEM, and LEM
// crash/recovery pairs — under run's invariant sweep, every period and at
// the end: no actor lost, duplicated, or stuck mid-migration; no machine's
// memory accounting drifted; and, at the end, the application is serving
// again within two elasticity periods of the last fault. The same seed replays
// the same faults bit for bit (see the KindChaos records), which is what turns
// §4.3's graceful-degradation claims into checkable assertions. stretch
// multiplies every arm's quick horizon (PageRank's iterations).
func chaosRun(cfg Config, stretch int, r *Result) {
	r.Header = []string{"App", "Seed", "Dropped", "Dup", "Delayed", "Crashes", "CtlFails", "Migrations", "Failed", "Denied"}

	seeds := []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}
	apps := []struct {
		name string
		arm  func(stretch int, seed int64) scenario
	}{
		{"pagerank", pagerankChaosArm},
		{"mediaservice", mediaChaosArm},
		{"halo", haloChaosArm},
	}

	var runs, faults, crashes, migrations int
	for _, app := range apps {
		for _, seed := range seeds {
			cr := run(cfg, seed, app.arm(stretch, seed))
			runs++
			st, emrStats := cr.Inj.Stats, cr.M.Stats
			faults += st.TotalDropped() + st.TotalDuplicated() + st.TotalDelayed()
			crashes += cr.Crashes
			migrations += emrStats.ExecutedMigrations
			r.addRow(app.name, fmt.Sprintf("%d", seed),
				fmt.Sprintf("%d", st.TotalDropped()),
				fmt.Sprintf("%d", st.TotalDuplicated()),
				fmt.Sprintf("%d", st.TotalDelayed()),
				fmt.Sprintf("%d", cr.Crashes),
				fmt.Sprintf("%d", cr.CtlFails),
				fmt.Sprintf("%d", emrStats.ExecutedMigrations),
				fmt.Sprintf("%d", emrStats.QueryTimeouts+cr.RT.FailedMigrations()),
				fmt.Sprintf("%d", emrStats.DeniedAdmissions))
		}
	}
	r.Summary["runs"] = float64(runs)
	r.Summary["msg_faults"] = float64(faults)
	r.Summary["crashes"] = float64(crashes)
	r.Summary["migrations"] = float64(migrations)
}

// chaosMsgFaults is the message-fault mix every app runs under: light loss,
// duplication, and delay on all four control-plane message kinds.
var chaosMsgFaults = chaos.Faults{DropProb: 0.10, DupProb: 0.05, DelayProb: 0.10, MaxDelay: 5 * sim.Millisecond}

// servedAfterRecovery is the serving apps' liveness check: some request must
// have completed two elasticity periods or more after the last fault.
func servedAfterRecovery(lastReply *sim.Time, period sim.Duration, what string) func(outcome) string {
	return func(out outcome) string {
		if *lastReply < out.lastFault+sim.Time(2*period) {
			return "no " + what + " served after recovery window"
		}
		return ""
	}
}

// pagerankChaosArm runs the PageRank computation under control-plane chaos
// (message faults plus GEM/LEM crash pairs; no machine crashes — a
// synchronous barrier workload cannot survive the simulator's loss of
// in-process messages, and machine-crash recovery is covered by the other
// two apps). The liveness invariant is completion: elasticity-plane chaos
// must never stall the application.
func pagerankChaosArm(stretch int, seed int64) scenario {
	su := prSetup{vertices: 3000, avgDeg: 8, workers: 8, iterations: 40 * stretch,
		perEdge: 55 * sim.Microsecond, syncOver: 8 * sim.Millisecond, period: 500 * sim.Millisecond}
	placement := make([]cluster.MachineID, su.workers)
	for i := range placement {
		placement[i] = cluster.MachineID(i % 4)
	}
	a := pagerankArm(su, pagerankInput(su, seed), 4, placement, 120*sim.Second)
	a.policy = pagerank.PolicySrc
	a.emr = emr.Config{Period: su.period, NumGEMs: 2}
	a.faults = &faultPlan{floor: 4, msg: chaosMsgFaults, draw: chaos.ScheduleOpts{
		Horizon: sim.Time(20 * sim.Second),
		GEMs:    2, LEMs: []int{0, 1, 2, 3},
		GEMFails: 1, LEMFails: 2,
		MeanOutage: 4 * sim.Second,
	}}
	a.settle = 2 * su.period
	a.stalled = func(outcome) string {
		if !a.app.Done {
			return "pagerank stalled under control-plane chaos"
		}
		return ""
	}
	return a.scenario
}

// mediaChaosArm runs the Media Service under the full fault mix: message
// faults plus machine, GEM, and LEM crash/recovery pairs. Clients drive
// open-loop request streams from a protected client-site machine, and the
// liveness invariant is that requests complete after the last fault.
func mediaChaosArm(stretch int, _ int64) scenario {
	total := sim.Duration(stretch) * 90 * sim.Second
	period := 5 * sim.Second
	clientSite := cluster.MachineID(4)

	var app *mediaservice.App
	lastReply := sim.Time(-1)
	sc := scenario{
		machines: 5, inst: cluster.M1Small,
		build:  func(w *core.World) { app = mediaservice.Build(w.K, w.RT, []cluster.MachineID{0, 1, 2, 3}, 4) },
		wire:   true,
		policy: mediaservice.PolicySrc,
		emr:    emr.Config{Period: period, NumGEMs: 2},
		faults: &faultPlan{floor: 3, protected: []cluster.MachineID{clientSite}, msg: chaosMsgFaults,
			draw: chaos.ScheduleOpts{
				Horizon:  sim.Time(total) * 6 / 10,
				Machines: []int{1, 2, 3},
				GEMs:     2, LEMs: []int{0, 1, 2, 3},
				Crashes: 2, GEMFails: 1, LEMFails: 1,
				MeanOutage: 8 * sim.Second,
			}},
		load: func(w *core.World) {
			k := w.K
			for i := 0; i < 8; i++ {
				k.At(sim.Time(i)*sim.Time(250*sim.Millisecond), func() {
					_, fe := app.AddClient()
					cl := w.Client(clientSite)
					next := mediaRequests(fe)
					k.Every(250*sim.Millisecond, func() bool {
						if k.Now() >= sim.Time(total) {
							return false
						}
						req := next()
						cl.Request(req.Target, req.Method, nil, req.Size, func(sim.Duration, interface{}) { lastReply = k.Now() })
						return true
					})
				})
			}
		},
		horizon: total, settle: 2 * period,
		stalled: servedAfterRecovery(&lastReply, period, "requests"),
	}
	return sc
}

// haloChaosArm runs the Halo presence service (routers, sessions, players)
// under the full fault mix, with heartbeats as the liveness probe.
func haloChaosArm(stretch int, _ int64) scenario {
	total := sim.Duration(stretch) * 120 * sim.Second
	period := 10 * sim.Second
	h := &haloFleet{servers: 8, routerSrvs: 2, routers: 4, sessions: 8}

	machines := make([]int, h.servers)
	for i := range machines {
		machines[i] = i
	}
	lastReply := sim.Time(-1)
	sc := h.arm()
	sc.policy = halo.FullPolicySrc
	sc.emr = emr.Config{Period: period, NumGEMs: 2}
	sc.faults = &faultPlan{floor: h.servers / 2, msg: chaosMsgFaults,
		protected: []cluster.MachineID{cluster.MachineID(h.servers), cluster.MachineID(h.servers + 1)},
		draw: chaos.ScheduleOpts{
			Horizon:  sim.Time(total) * 6 / 10,
			Machines: machines,
			GEMs:     2, LEMs: machines,
			Crashes: 2, GEMFails: 1, LEMFails: 2,
			MeanOutage: 10 * sim.Second,
		}}
	sc.load = func(w *core.World) {
		for i := 0; i < 12; i++ {
			w.K.At(sim.Time(i)*sim.Time(2*sim.Second), func() {
				h.join(w, i, i, 200*sim.Millisecond, func(cl *actor.Client, p actor.Ref) bool {
					if w.K.Now() >= sim.Time(total) {
						return false
					}
					h.app.Heartbeat(cl, p, func(sim.Duration) { lastReply = w.K.Now() })
					return true
				})
			})
		}
	}
	sc.horizon, sc.settle = total, 2*period
	sc.stalled = servedAfterRecovery(&lastReply, period, "heartbeats")
	return sc
}
