package main

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/pagerank"
	"plasma/internal/apps/streamagg"
	"plasma/internal/apps/workload"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/sim"
)

// runSeconds is BENCHMARK.json's run_seconds: the --seconds at which Work
// is 1.
const runSeconds = 10

// workloads are the benchmark's four sets of inputs. Each stresses layers
// the others leave idle, so that a gain for one use of a layer that costs
// another use shows up as a regression somewhere.
var workloads = []*spec{
	{
		Name:     "pagerank_rebalance",
		Why:      "closed batch job; graph generation and partitioning fill set-up, few actors and all-to-all sync traffic fill the run",
		SubSeeds: 36, SLOms: 450, Bucket: 5 * sim.Second, Pulse: 4 * sim.Second,
		Build: buildPagerank,
	},
	{
		Name:     "media_bell",
		Why:      "closed-loop clients on a bell curve; actor dispatch, the event heap and machine scheduling dominate, the control plane is idle",
		SubSeeds: 8, SLOms: 250, Bucket: 10 * sim.Second, Pulse: 30 * sim.Second,
		Build: buildMedia,
	},
	{
		Name:     "fleet_control",
		Why:      "131k actors on 1k servers under a balance rule; snapshot, rule evaluation and GEM planning do the work, and memory footprint peaks",
		SubSeeds: 1, SLOms: 8, Bucket: 500 * sim.Millisecond, Pulse: 200 * sim.Millisecond,
		Build: buildFleet,
	},
	{
		Name:     "stream_shift_chaos",
		Why:      "open-loop stream with a drifting hot set, large-state migration, reserve/evacuate, chaos faults and the decision tracer on",
		SubSeeds: 4, SLOms: 50, Bucket: sim.Second, Pulse: 10 * sim.Second,
		Build: buildStream,
	},
}

func workloadByName(name string) *spec {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// pagerank_rebalance

// buildPagerank deploys apps/pagerank on a power-law graph several times
// the fig6a size, workers placed at random with equal counts per machine,
// under pagerank.PolicySrc. The job is closed: it ends when the iterations
// are done. An op is one iteration.
func buildPagerank(p *pass, seed int64, sc scale) *world {
	vertices := scaled(36000, sc.World, 600)
	workers := scaled(56, sc.World, 8)
	machines := scaled(7, sc.World, 1)
	iterations := scaled(70, sc.Work, 4)
	const period = sim.Second

	w := p.newWorld(seed, machines, cluster.M5Large)
	w.policy(pagerank.PolicySrc, pagerank.Schema())

	in, fresh := p.graphFor(vertices, workers)
	g, parts := in.g, in.parts
	if fresh {
		w.edgeCut = in.edgeCut // counted once per graph, by the world that made it
	}

	// Random placement with equal actor counts per machine, as in §5.4: a
	// count-based manager would take no action, a CPU-based one must.
	perm := w.k.Rand().Perm(workers)
	placement := make([]cluster.MachineID, workers)
	for i, slot := range perm {
		placement[slot] = cluster.MachineID(i % machines)
	}
	var app *pagerank.App
	p.spans.in("apps", "pagerank.Build", func() {
		app = pagerank.Build(w.k, w.rt, pagerank.Config{
			Graph: g, Parts: parts, K: workers,
			PerEdgeCost: 55 * sim.Microsecond, SyncOverhead: 110 * sim.Millisecond,
			Iterations: iterations, HeteroSpread: 0.5,
		}, placement)
	})
	w.manage(emr.Config{Period: period}, false, 0)
	w.sizes["vertices"], w.sizes["workers"], w.sizes["iterations"] = vertices, workers, iterations

	// The job's end is not known in advance, so the integrals end when it
	// does: the server meter runs open-ended and drive closes it.
	var cur int // the window the running iteration began in
	app.OnIteration = func(iter int, d sim.Duration) {
		w.ops.complete(cur, d)
		if iter+1 < iterations {
			cur = w.ops.attempt()
		}
	}
	w.drive = func() {
		w.meterServers(0)
		w.mgr.Start()
		app.Start(w.k)
		cur = w.ops.attempt()
		deadline := sim.Time(sim.Duration(iterations) * 5 * sim.Second)
		for !app.Done && w.k.Now() < deadline && w.k.Step() {
		}
		w.mgr.Stop()
		w.closeMeter()
	}
	w.check = func() []string {
		var bad []string
		if in.invalid != nil {
			bad = append(bad, in.invalid.Error())
		}
		if !app.Done {
			bad = append(bad, fmt.Sprintf("pagerank finished %d of %d iterations", len(app.IterationTimes), iterations))
		}
		return bad
	}
	return w
}

// worldsPerGraph is how many of pagerank_rebalance's worlds run on one
// generated graph. Generation and partitioning are the set-up cost the
// workload exists to show; placement and per-partition cost still differ
// from world to world.
const worldsPerGraph = 12

// graphInput is a generated graph and its partition.
type graphInput struct {
	seed    int64
	g       *graph.Graph
	parts   []int
	edgeCut int64
	invalid error // what graph.Validate said of parts
}

// graphFor generates and partitions the graph of the sub-seed now running,
// unless the world before it (its own warm-up world included) already did:
// the graph depends on the seed and the world size, not on how long the
// pass runs.
func (p *pass) graphFor(vertices, workers int) (in *graphInput, fresh bool) {
	seed := p.subSeed(len(p.subs) / worldsPerGraph * worldsPerGraph)
	if in := p.graph; in != nil && in.seed == seed && len(in.parts) == vertices {
		return in, false
	}
	in = &graphInput{seed: seed}
	p.spans.in("graph", "graph.GeneratePowerLaw", func() { in.g = graph.GeneratePowerLaw(vertices, 10, 2.1, seed) })
	// Partitioning is one call of two seconds that cannot be timed in
	// slices, so it gets a slice of its own with two bursts on either side.
	p.watch.lap()
	p.watch.lap()
	p.spans.in("graph", "graph.PartitionMultilevel", func() { in.parts = graph.PartitionMultilevel(in.g, workers, seed) })
	p.watch.lap()
	p.watch.lap()
	p.spans.in("graph", "graph.Validate", func() {
		in.invalid = graph.Validate(in.parts, vertices, workers)
		in.edgeCut = graph.EdgeCut(in.g, in.parts)
	})
	p.graph = in
	return in, true
}

// ---------------------------------------------------------------------------
// media_bell

// buildMedia deploys apps/mediaservice under the Fig. 10 client
// population: clients join on one normal curve and leave on another, each
// a closed loop with 200 ms think time, while the EMR scales the fleet out
// from 4 m1.small and back in. An op is one client request.
func buildMedia(p *pass, seed int64, sc scale) *world {
	clients := scaled(128, sc.World, 8)
	maxServers := scaled(65, sc.World, 8)
	// The paper's 26-minute bell, its time axis scaled by the work factor.
	joinMu, joinSigma := sc.dur(2*sim.Minute), sc.dur(90*sim.Second)
	stay := sc.dur(4 * sim.Minute)
	leaveMu, leaveSigma := sc.dur(19*sim.Minute), sc.dur(90*sim.Second)
	total := sim.Time(sc.dur(26 * sim.Minute))
	period := 60 * sim.Second
	if sim.Duration(total) < 20*period {
		period = sim.Duration(total) / 20
	}

	w := p.newWorld(seed, 4, cluster.M1Small)
	w.c.SetMaxSize(maxServers)
	w.policy(mediaservice.PolicySrc, mediaservice.Schema())
	var app *mediaservice.App
	p.spans.in("apps", "mediaservice.Build", func() {
		app = mediaservice.Build(w.k, w.rt, []cluster.MachineID{0, 1, 2, 3}, 8)
	})
	p.spans.in("sim", "Kernel.RunUntilIdle", w.k.RunUntilIdle)
	w.manage(emr.Config{Period: period, ScaleOut: true, ScaleIn: true,
		MinServers: 4, InstanceType: cluster.M1Small}, false, 0)
	w.sizes["clients"], w.sizes["max_servers"] = clients, maxServers
	w.sizes["horizon_s"] = int(total.Seconds())

	norm := func(mu, sigma sim.Duration) sim.Time {
		x := w.k.Rand().NormFloat64()*float64(sigma) + float64(mu)
		if x < 0 {
			x = 0
		}
		return sim.Time(x)
	}
	for i := 0; i < clients; i++ {
		joinAt := norm(joinMu, joinSigma)
		leaveAt := norm(leaveMu, leaveSigma)
		if leaveAt < joinAt+sim.Time(stay) {
			leaveAt = joinAt + sim.Time(stay)
		}
		w.k.At(joinAt, func() {
			id, fe := app.AddClient()
			// The client's actors go away only once its outstanding request
			// is answered, so no request is ever left unanswered by design.
			outstanding, leaving := false, false
			var done func(sim.Duration, interface{})
			sent := 0
			loop := &workload.ClosedLoop{
				K: w.k, Client: actor.NewClient(w.rt, 0), Think: 200 * sim.Millisecond,
				Next: func() workload.Request {
					outstanding = true
					done = w.ops.request()
					// Two watches to a review: with the two flows' service
					// times 16 ms and 25 ms apart, an even mix would put the
					// median latency in the gap between them, where it jumps
					// from one flow to the other with the smallest change.
					sent++
					if sent%3 == 0 {
						return workload.Request{Target: fe, Method: "review", Size: 2 << 10}
					}
					return workload.Request{Target: fe, Method: "watch", Size: 512}
				},
				OnReply: func(lat sim.Duration) {
					outstanding = false
					done(lat, nil)
					if leaving {
						app.RemoveClient(id)
					}
				},
			}
			loop.Start()
			w.k.At(leaveAt, func() {
				loop.Stop()
				leaving = true
				if !outstanding {
					app.RemoveClient(id)
				}
			})
		})
	}
	w.meterServers(total)
	w.actorsWant = app.ActiveActors
	w.drive = func() {
		w.mgr.Start()
		w.k.Run(total)
		w.mgr.Stop()
		// Let the last requests and migrations finish.
		w.k.Run(total + sim.Time(2*period))
	}
	return w
}

// ---------------------------------------------------------------------------
// fleet_control

// fleetPolicy is the scale family's single cpu balance band.
const fleetPolicy = `server.cpu.perc > 70 or server.cpu.perc < 30 => balance({Worker}, cpu);`

// buildFleet rebuilds the scale family's synthetic fleet at 131,072
// Workers on 1,024 servers: one eighth of the Workers run hot, one eighth
// of the servers start spare, every Worker self-messages on a 2 s cycle,
// and four GEMs balance them every 500 ms. Closed-loop probe clients request a random
// Worker each; that request is the op.
func buildFleet(p *pass, seed int64, sc scale) *world {
	size := scaled(131072, sc.World, 1024)
	servers := size / 128
	probes := scaled(64, sc.World, 4)
	periods := scaled(40, sc.Work, 2)
	const (
		cycle  = 2 * sim.Second
		period = 500 * sim.Millisecond
		think  = 40 * sim.Millisecond
	)
	spares := servers / 8
	used, hot := servers-spares, spares
	w := p.newWorld(seed, servers+1, cluster.M1Small)
	clientSite := cluster.MachineID(servers)
	// The run ends a seeded fraction of a period after the last tick, so
	// that even the fixed fleet's server-seconds are the seed's own.
	total := sim.Time(sim.Duration(periods)*period) + sim.Time(w.k.Rand().Int63n(int64(period/2))) + sim.Time(period/4)
	w.policy(fleetPolicy, epl.NewSchema(epl.Class("Worker", []string{"work", "probe"}, nil)))

	// A cold Worker keeps its server mid-band; a hot one runs double duty,
	// and a server full of them breaches the upper bound. Which eighth of
	// the fleet is hot moves on every ten periods, from the Workers that
	// started on the first group of servers to those of the next, so the
	// control plane has the same work to do in every stretch of the run.
	const shiftEvery = 10 * period
	groups := used / hot
	hotGroup := 0
	w.k.Every(shiftEvery, func() bool {
		hotGroup = (hotGroup + 1) % groups
		return w.k.Now() < total
	})
	mkWorker := func(group int) actor.Behavior {
		return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			if msg.Method == "probe" {
				ctx.Use(msg.Arg.(sim.Duration))
				ctx.Reply(nil, 64)
				return
			}
			cost := 6 * sim.Millisecond
			if group == hotGroup {
				cost = 12 * sim.Millisecond
			}
			ctx.Use(cost)
			ctx.SendAfter(cycle-cost, ctx.Self(), "work", nil, 16)
		})
	}
	behaviors := make([]actor.Behavior, groups+1)
	for g := range behaviors {
		behaviors[g] = mkWorker(g)
	}
	refs := make([]actor.Ref, size)
	boot := actor.NewClient(w.rt, 0)
	p.spans.in("actor", "Runtime.SpawnOn", func() {
		for i := range refs {
			srv := cluster.MachineID(i % used)
			refs[i] = w.rt.SpawnOn("Worker", behaviors[int(srv)/hot], srv)
			ref := refs[i]
			kick := sim.Duration(i%int(cycle/sim.Millisecond)+1) * sim.Millisecond
			w.k.At(sim.Time(kick), func() { boot.Send(ref, "work", nil, 16) })
		}
	})
	w.manage(emr.Config{Period: period, NumGEMs: 4, MinResidence: period}, false, 0)
	w.sizes["actors"], w.sizes["probes"], w.sizes["periods"] = size, probes, periods

	for i := 0; i < probes; i++ {
		loop := &workload.ClosedLoop{
			K: w.k, Client: actor.NewClient(w.rt, clientSite), Think: think,
		}
		var done func(sim.Duration, interface{})
		loop.Next = func() workload.Request {
			if w.k.Now() >= total {
				loop.Stop()
				return workload.Request{}
			}
			done = w.ops.request()
			// A probe's own service time is drawn per request, 100 to 300 us.
			cost := 100*sim.Microsecond + sim.Duration(w.k.Rand().Int63n(int64(200*sim.Microsecond)))
			return workload.Request{Target: refs[w.k.Rand().Intn(size)], Method: "probe", Arg: cost, Size: 64}
		}
		loop.OnReply = func(lat sim.Duration) { done(lat, nil) }
		w.k.At(sim.Time(i)*sim.Time(think)/sim.Time(probes), loop.Start)
	}
	w.meterServers(total)
	w.drive = func() {
		w.mgr.Start()
		w.k.Run(total)
		w.mgr.Stop()
		w.k.Run(total + sim.Time(2*period))
	}
	return w
}

// ---------------------------------------------------------------------------
// stream_shift_chaos

// streamFaults is the message-fault mix on every control-plane message
// kind, as in the repository's chaos experiments.
var streamFaults = chaos.Faults{DropProb: 0.10, DupProb: 0.05, DelayProb: 0.10, MaxDelay: 5 * sim.Millisecond}

// buildStream deploys apps/streamagg in plasma mode well past the
// stream_skew -full size: open-loop arrivals at a fixed rate from a Zipf
// whose hot set drifts every 10 s, bounded mailboxes, the lease and
// evacuate reserve policy, control-message faults with one server crash
// and one GEM crash per world, and the decision tracer on into a ring the
// run phase encodes. An op is one per-window flush probe.
func buildStream(p *pass, seed int64, sc scale) *world {
	servers := scaled(16, sc.World, 4)
	parts := servers * 4
	keys := parts * 64
	span := keys / 8
	clients := scaled(24, sc.World, 4)
	const (
		baseEvery = 10 * sim.Millisecond // per client: 100 events/s
		window    = sim.Second
		period    = sim.Second
		drift     = 10 * sim.Second
	)
	total := sim.Time(sc.dur(700 * sim.Second))
	if total < sim.Time(8*sim.Second) {
		total = sim.Time(8 * sim.Second)
	}
	stop := total

	w := p.newWorld(seed, servers+1, cluster.M1Small)
	clientSite := cluster.MachineID(servers)
	// A mailbox this deep is never reached while the EMR keeps up: a shed
	// event, or a flush probe shed with it, means a change let a backlog grow.
	w.rt.MailboxCap = 4096
	w.policy(streamagg.PolicySrc, streamagg.Schema())
	ids := make([]cluster.MachineID, servers)
	for i := range ids {
		ids[i] = cluster.MachineID(i)
	}
	var app *streamagg.Plasma
	p.spans.in("apps", "streamagg.BuildPlasma", func() {
		app = streamagg.BuildPlasma(w.k, w.rt, ids, parts, streamagg.Config{
			Keys: keys, PerKeyBytes: 64 << 10,
			EvCost: 2 * sim.Millisecond,
			// A flush costs 450 to 550 us, drawn per world: an idle
			// partition's answer time, the median op, is then the seed's own.
			FlushCost: 450*sim.Microsecond + sim.Duration(w.k.Rand().Int63n(int64(100*sim.Microsecond))),
		})
	})
	w.manage(emr.Config{
		Period: period, NumGEMs: 2, MinResidence: period / 2, MinServers: servers,
		InstanceType: cluster.M1Small, ReserveTTL: 3, ReserveEvacuate: true,
	}, true, 1<<19)
	w.sizes["parts"], w.sizes["keys"], w.sizes["clients"] = parts, keys, clients
	w.sizes["horizon_s"] = int(total.Seconds())

	// Chaos: message faults throughout; one server crashes a quarter of
	// the way in and is repaired 15 to 25 s later; GEM 0 is down across the
	// middle of the run. Crash instants sit mid-window, away from the
	// flush probes sent on window boundaries.
	w.inj = chaos.NewInjector(seed*31+7, w.k.Now)
	w.inj.SetAllFaults(streamFaults)
	w.mgr.SetChaos(w.inj)
	w.env = &chaosEnv{w: w, floor: servers / 2, protected: map[cluster.MachineID]bool{clientSite: true}}
	at := func(frac float64, plus sim.Duration) sim.Time {
		whole := sim.Time(float64(total)*frac) / sim.Time(window) * sim.Time(window)
		return whole + sim.Time(window/2) + sim.Time(plus)
	}
	outage := 15*sim.Second + sim.Duration(w.inj.Rand().Int63n(int64(10*sim.Second)))
	w.inj.Apply(w.k, w.env, []chaos.Event{
		{At: at(0.25, 0), Op: chaos.CrashMachine, Target: servers - 1},
		{At: at(0.25, outage), Op: chaos.RepairMachine, Target: servers - 1},
		{At: at(0.5, 0), Op: chaos.FailGEM, Target: 0},
		{At: at(0.5, 30*sim.Second), Op: chaos.RecoverGEM, Target: 0},
	})

	// The drifting arrival process, shared by every client.
	zipf := workload.NewZipfKeys(w.k, 1.05, keys, span, keys/parts)
	// The hot set drifts three partitions' worth of keys every 10 s. One
	// jump of half the key space every 40 s, as in stream_skew, leaves the
	// p99 to the few worst recoveries of a run, and it then differs by a
	// factor of five between seeds.
	for t := sim.Time(drift) + sim.Time(window/2); t < stop; t += sim.Time(drift) {
		w.k.At(t, func() { zipf.Rotate(3 * keys / parts) })
	}
	var sent int64
	for i := 0; i < clients; i++ {
		cl := actor.NewClient(w.rt, clientSite)
		var fire func()
		fire = func() {
			if w.k.Now() >= stop {
				return
			}
			key := zipf.Draw()
			cl.Send(app.Owner(key), "ev", key, 128)
			sent++
			w.k.After(baseEvery, fire)
		}
		w.k.At(sim.Time(i)*sim.Time(baseEvery)/sim.Time(clients), fire)
	}

	// One flush request per partition at every window boundary; its
	// latency, timed from the boundary it was due at, is the backlog the
	// window's results wait behind.
	flushCl := actor.NewClient(w.rt, clientSite)
	w.k.Every(window, func() bool {
		if w.k.Now() > stop {
			return false
		}
		for _, ref := range app.Parts {
			flushCl.Request(ref, "flush", nil, 64, w.ops.request())
		}
		return true
	})
	w.meterServers(total)
	w.drive = func() {
		w.mgr.Start()
		w.k.Run(stop)
		w.mgr.Stop()
		w.k.Run(stop + sim.Time(10*sim.Second))
	}
	w.check = func() []string {
		var bad []string
		if lost := sent - app.Events - w.rt.ShedRequests(); lost > int64(w.env.crashes) {
			// A crash loses the one event its machine was processing.
			bad = append(bad, fmt.Sprintf("%d events neither processed nor shed", lost))
		}
		if w.env.crashes != 1 || w.env.ctlFails != 1 {
			bad = append(bad, fmt.Sprintf("fault schedule applied %d crashes and %d GEM failures, want 1 and 1",
				w.env.crashes, w.env.ctlFails))
		}
		return bad
	}
	return w
}
