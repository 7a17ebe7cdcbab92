package experiments

import (
	"fmt"
	"strings"

	"plasma/internal/actor"
	"plasma/internal/apps/halo"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/pagerank"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/sim"
)

// Chaos is the deterministic fault-injection harness: PageRank, the Media
// Service, and Halo each run under randomized-but-seeded fault schedules —
// control-plane message drops/delays/duplicates plus machine, GEM, and LEM
// crash/recovery pairs — and a global invariant sweep is asserted at the
// end of every run: no actor lost, duplicated, or stuck mid-migration; no
// machine's memory accounting drifted; and the application is serving again
// within two elasticity periods of the last fault. The same seed replays
// the same faults bit for bit (see the injector trace), which is what turns
// §4.3's graceful-degradation claims into checkable assertions.
func Chaos(cfg Config) *Result {
	r := newResult("chaos", "Invariants under seeded control-plane and crash fault schedules")
	r.Header = []string{"App", "Seed", "Dropped", "Dup", "Delayed", "Crashes", "CtlFails", "Migrations", "Failed", "Denied", "Invariants"}

	seeds := []int64{cfg.seed(), cfg.seed() + 1, cfg.seed() + 2}
	apps := []struct {
		name string
		run  func(Config, int64) chaosRun
	}{
		{"pagerank", chaosPagerank},
		{"mediaservice", chaosMediaService},
		{"halo", chaosHalo},
	}

	runs, violations := 0, 0
	var faults, crashes, migrations int
	for _, app := range apps {
		for _, seed := range seeds {
			cr := app.run(cfg, seed)
			runs++
			violations += len(cr.violations)
			st := cr.injStats
			faults += st.TotalDropped() + st.TotalDuplicated() + st.TotalDelayed()
			crashes += cr.crashes
			migrations += cr.emrStats.ExecutedMigrations
			verdict := "ok"
			if len(cr.violations) > 0 {
				verdict = strings.Join(cr.violations, "; ")
			}
			r.addRow(app.name, fmt.Sprintf("%d", seed),
				fmt.Sprintf("%d", st.TotalDropped()),
				fmt.Sprintf("%d", st.TotalDuplicated()),
				fmt.Sprintf("%d", st.TotalDelayed()),
				fmt.Sprintf("%d", cr.crashes),
				fmt.Sprintf("%d", cr.ctlFails),
				fmt.Sprintf("%d", cr.emrStats.ExecutedMigrations),
				fmt.Sprintf("%d", cr.emrStats.QueryTimeouts+cr.failedMigs),
				fmt.Sprintf("%d", cr.emrStats.DeniedAdmissions),
				verdict)
		}
	}
	r.Summary["runs"] = float64(runs)
	r.Summary["invariant_violations"] = float64(violations)
	r.Summary["msg_faults"] = float64(faults)
	r.Summary["crashes"] = float64(crashes)
	r.Summary["migrations"] = float64(migrations)
	r.notef("every run asserts: no actor lost/duplicated/stuck, memory accounting exact, serving resumes within 2 periods of the last fault")
	return r
}

// chaosRun is one application's outcome under one seeded fault schedule.
type chaosRun struct {
	trace      []string // injector fault trace (bit-identical across replays)
	dir        string   // final actor directory, "id@srv ..." in id order
	injStats   chaos.Stats
	emrStats   emr.Stats
	failedMigs int
	crashes    int // machine crash events applied
	ctlFails   int // GEM+LEM crash events applied
	violations []string
}

// chaosOutcome reads a drained world's counters and runs the invariant sweep.
func chaosOutcome(w *core.World) chaosRun {
	return chaosRun{
		trace: w.Inj.Trace(), dir: finalDirectory(w.RT),
		injStats: w.Inj.Stats, emrStats: w.M.Stats,
		failedMigs: w.RT.FailedMigrations(),
		crashes:    w.Crashes, ctlFails: w.CtlFails,
		violations: w.Invariants(),
	}
}

// finalDirectory renders the actor directory for bit-identity comparison.
func finalDirectory(rt *actor.Runtime) string {
	var sb strings.Builder
	for _, ref := range rt.Actors() {
		fmt.Fprintf(&sb, "%d@%d ", ref.ID, rt.ServerOf(ref))
	}
	return sb.String()
}

// lastEventTime is when the schedule's final event (fault or recovery) fires.
func lastEventTime(events []chaos.Event) sim.Time {
	var last sim.Time
	for _, ev := range events {
		if ev.At > last {
			last = ev.At
		}
	}
	return last
}

// chaosMsgFaults is the message-fault mix every app runs under: light loss,
// duplication, and delay on all four control-plane message kinds.
var chaosMsgFaults = chaos.Faults{DropProb: 0.10, DupProb: 0.05, DelayProb: 0.10, MaxDelay: 5 * sim.Millisecond}

// chaosPagerank runs the PageRank computation under control-plane chaos
// (message faults plus GEM/LEM crash pairs; no machine crashes — a
// synchronous barrier workload cannot survive the simulator's loss of
// in-process messages, and machine-crash recovery is covered by the other
// two apps). The liveness invariant is completion: elasticity-plane chaos
// must never stall the application.
func chaosPagerank(cfg Config, seed int64) chaosRun {
	iterations := 40
	if cfg.Full {
		iterations = 80
	}
	period := 500 * sim.Millisecond
	w := cfg.world(seed, 4, cluster.M5Large)
	k := w.K
	g := graph.GeneratePowerLaw(3000, 8, 2.1, seed)
	parts := graph.PartitionMultilevel(g, 8, seed)
	placement := make([]cluster.MachineID, 8)
	for i := range placement {
		placement[i] = cluster.MachineID(i % 4)
	}
	app := pagerank.Build(k, w.RT, pagerank.Config{
		Graph: g, Parts: parts, K: 8,
		PerEdgeCost: 55 * sim.Microsecond, SyncOverhead: 8 * sim.Millisecond,
		Iterations: iterations, HeteroSpread: 0.5,
	}, placement)

	m := w.Manage(epl.MustParse(pagerank.PolicySrc),
		emr.Config{Period: period, NumGEMs: 2, MinResidence: period})
	inj := w.Chaos(seed, 4)
	inj.SetAllFaults(chaosMsgFaults)
	events := inj.Generate(chaos.ScheduleOpts{
		Horizon: sim.Time(20 * sim.Second),
		GEMs:    2, LEMs: []int{0, 1, 2, 3},
		GEMFails: 1, LEMFails: 2,
		MeanOutage: 4 * sim.Second,
	})
	inj.Apply(k, w, events)
	m.Start()
	app.Start(k)

	deadline := sim.Time(120 * sim.Second)
	for !app.Done && k.Now() < deadline && k.Step() {
	}
	m.Stop()
	w.Run(2 * period)

	cr := chaosOutcome(w)
	if !app.Done {
		cr.violations = append(cr.violations, "pagerank stalled under control-plane chaos")
	}
	return cr
}

// chaosMediaService runs the Media Service under the full fault mix:
// message faults plus machine, GEM, and LEM crash/recovery pairs. Clients
// drive open-loop request streams from a protected client-site machine, and
// the liveness invariant is that requests complete after the last fault.
func chaosMediaService(cfg Config, seed int64) chaosRun {
	total := 90 * sim.Second
	if cfg.Full {
		total = 180 * sim.Second
	}
	period := 5 * sim.Second
	clientSite := cluster.MachineID(4)

	w := cfg.world(seed, 5, cluster.M1Small)
	k, rt := w.K, w.RT
	app := mediaservice.Build(k, rt, []cluster.MachineID{0, 1, 2, 3}, 4)
	k.RunUntilIdle()

	m := w.Manage(epl.MustParse(mediaservice.PolicySrc),
		emr.Config{Period: period, NumGEMs: 2, MinResidence: period})
	inj := w.Chaos(seed, 3, clientSite)
	inj.SetAllFaults(chaosMsgFaults)
	events := inj.Generate(chaos.ScheduleOpts{
		Horizon:  sim.Time(total) * 6 / 10,
		Machines: []int{1, 2, 3},
		GEMs:     2, LEMs: []int{0, 1, 2, 3},
		Crashes: 2, GEMFails: 1, LEMFails: 1,
		MeanOutage: 8 * sim.Second,
	})
	inj.Apply(k, w, events)
	m.Start()

	recoveredAt := lastEventTime(events) + sim.Time(2*period)
	served := 0
	for i := 0; i < 8; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(250*sim.Millisecond), func() {
			_, fe := app.AddClient()
			cl := actor.NewClient(rt, clientSite)
			watch := true
			k.Every(250*sim.Millisecond, func() bool {
				if k.Now() >= sim.Time(total) {
					return false
				}
				watch = !watch
				method, size := "watch", int64(512)
				if !watch {
					method, size = "review", 2<<10
				}
				cl.Request(fe, method, nil, size, func(sim.Duration, interface{}) {
					if k.Now() >= recoveredAt {
						served++
					}
				})
				return true
			})
		})
	}
	w.Drain(sim.Time(total), 2*period)

	cr := chaosOutcome(w)
	if served == 0 {
		cr.violations = append(cr.violations, "no requests served after recovery window")
	}
	return cr
}

// chaosHalo runs the Halo presence service (routers, sessions, players)
// under the full fault mix, with heartbeats as the liveness probe.
func chaosHalo(cfg Config, seed int64) chaosRun {
	total := 120 * sim.Second
	if cfg.Full {
		total = 240 * sim.Second
	}
	period := 10 * sim.Second
	servers := 8

	w := cfg.world(seed, servers+2, cluster.M1Small)
	k, rt := w.K, w.RT
	routerSrvs := []cluster.MachineID{0, 1}
	sessionSrvs := make([]cluster.MachineID, servers)
	for i := range sessionSrvs {
		sessionSrvs[i] = cluster.MachineID(i)
	}
	app := halo.Build(k, rt, routerSrvs, sessionSrvs, 4, 8)

	m := w.Manage(epl.MustParse(halo.FullPolicySrc),
		emr.Config{Period: period, NumGEMs: 2, MinResidence: period})
	inj := w.Chaos(seed, servers/2, cluster.MachineID(servers), cluster.MachineID(servers+1))
	inj.SetAllFaults(chaosMsgFaults)
	machines := make([]int, servers)
	lems := make([]int, servers)
	for i := 0; i < servers; i++ {
		machines[i], lems[i] = i, i
	}
	events := inj.Generate(chaos.ScheduleOpts{
		Horizon:  sim.Time(total) * 6 / 10,
		Machines: machines,
		GEMs:     2, LEMs: lems,
		Crashes: 2, GEMFails: 1, LEMFails: 2,
		MeanOutage: 10 * sim.Second,
	})
	inj.Apply(k, w, events)
	m.Start()

	recoveredAt := lastEventTime(events) + sim.Time(2*period)
	served := 0
	for i := 0; i < 12; i++ {
		i := i
		joinAt := sim.Time(i) * sim.Time(2*sim.Second)
		k.At(joinAt, func() {
			p := app.Join(i % 8)
			cl := actor.NewClient(rt, cluster.MachineID(servers+i%2))
			k.Every(200*sim.Millisecond, func() bool {
				if k.Now() >= sim.Time(total) {
					return false
				}
				app.Heartbeat(cl, p, func(sim.Duration) {
					if k.Now() >= recoveredAt {
						served++
					}
				})
				return true
			})
		})
	}
	w.Drain(sim.Time(total), 2*period)

	cr := chaosOutcome(w)
	if served == 0 {
		cr.violations = append(cr.violations, "no heartbeats served after recovery window")
	}
	return cr
}
