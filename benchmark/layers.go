package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// This file gathers the per-layer metrics of a traced pass: counters read
// from each layer's public state, the decorators' host times, and isolated
// timings of one operation per layer at the workload's own sizes.

// encodeTrace is the run phase's trace export: the ring, JSONL-encoded
// into memory.
func (w *world) encodeTrace() {
	recs := w.ring.Records()
	var buf bytes.Buffer
	t0 := time.Now()
	if err := trace.WriteJSONL(&buf, recs); err != nil {
		panic(fmt.Sprintf("benchmark: encoding the trace: %v", err)) // a bytes.Buffer does not fail
	}
	w.p.addLayer("trace.jsonl_encode_s", time.Since(t0).Seconds())
	w.p.addLayer("trace.jsonl_mb", float64(buf.Len())/(1<<20))
	if lines := bytes.Count(buf.Bytes(), []byte{'\n'}); lines != len(recs) {
		w.p.encodeBad = fmt.Sprintf("trace export wrote %d lines for %d records", lines, len(recs))
	}
}

func (p *pass) addLayer(name string, v float64) {
	if p.layer == nil {
		p.layer = map[string]float64{}
	}
	p.layer[name] += v
}

// collect adds one finished world's counters to the pass's per-layer
// metrics.
func (p *pass) collect(w *world, r *subResult) {
	p.addLayer("graph.edge_cut", float64(w.edgeCut))

	p.addLayer("sim.events", float64(r.Events))
	if q := float64(r.PeakQueue); q > p.layer["sim.peak_queue"] {
		p.layer["sim.peak_queue"] = q
	}

	p.addLayer("cluster.provisions", float64(w.c.Provisions()))
	p.addLayer("cluster.decommissions", float64(w.c.Decommissions()))

	p.addLayer("actor.msgs", float64(w.hook.msgs))
	p.addLayer("actor.migrations", float64(w.rt.Migrations()))
	p.addLayer("actor.failed_migrations", float64(w.rt.FailedMigrations()))
	p.addLayer("actor.shed", float64(w.rt.ShedRequests()))

	p.addLayer("profile.hook_calls", float64(w.hook.calls))
	p.addLayer("profile.hook_self_s", w.hook.selfSeconds())
	p.addLayer("epl.parse_check_us", float64(w.parseCheck.Microseconds()))

	st := w.mgr.Stats
	p.addLayer("cluster.failed_provisions", float64(st.FailedProvisions))
	p.addLayer("emr.ticks", float64(st.Ticks))
	p.addLayer("emr.planned_actions", float64(st.PlannedActions))
	p.addLayer("emr.executed_migrations", float64(st.ExecutedMigrations))
	p.addLayer("emr.denied_admissions", float64(st.DeniedAdmissions))
	p.addLayer("emr.resolved_conflicts", float64(st.ResolvedConflicts))
	p.addLayer("emr.scale_outs", float64(st.ScaleOuts))
	p.addLayer("emr.scale_ins", float64(st.ScaleIns))
	p.addLayer("emr.retried_reports", float64(st.RetriedReports))
	p.addLayer("emr.query_timeouts", float64(st.QueryTimeouts))
	p.addLayer("emr.stale_reports_used", float64(st.StaleReportsUsed))

	p.addLayer("actor.moved_mb", w.sink.transferBytes/(1<<20))
	p.addLayer("epl.rule_evals", float64(w.sink.kinds[trace.KindRuleEval]))
	p.addLayer("epl.rule_fires", float64(w.sink.kinds[trace.KindRuleFire]))
	p.addLayer("emr.control_host_s", w.sink.controlSeconds())
	p.addLayer("trace.records", float64(w.sink.total))
	if w.ring != nil {
		p.addLayer("trace.dropped", float64(w.ring.Dropped()))
	}
	if w.inj != nil {
		is := w.inj.Stats
		p.addLayer("chaos.intercepted", float64(is.TotalIntercepted()))
		p.addLayer("chaos.faults", float64(is.TotalDropped()+is.TotalDuplicated()+is.TotalDelayed()))
		p.addLayer("chaos.crashes", float64(w.env.crashes+w.env.ctlFails))
	}

	p.addLayer("metrics.report_s", r.ReportS)
	p.addLayer("runtime.mallocs", float64(r.Mallocs))
	p.addLayer("runtime.gc_cycles", float64(r.GCCycles))
}

// isolate times one operation per layer on its own, at the sizes of the
// pass's last world, after the measured phases are over.
func (p *pass) isolate() {
	w := p.last
	p.layer["sim.sched_ns_per_event"] = schedNS(int(p.layer["sim.peak_queue"]))
	p.layer["cluster.exec_ns_per_op"] = execNS()
	p.layer["actor.ns_per_msg"] = requestNS()
	p.layer["trace.emit_ns_per_record"] = emitNS()

	// Snapshot and rule evaluation on the final world, EMR stopped.
	const calls = 5
	var snap *epl.Snapshot
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		p.spans.in("profile", "Profiler.Snapshot", func() { snap = w.prof.Snapshot(nil) })
	}
	p.layer["profile.snapshot_ms_per_call"] = time.Since(t0).Seconds() * 1e3 / calls
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		p.spans.in("epl", "epl.Evaluate", func() { epl.Evaluate(w.pol, snap, true, true) })
	}
	p.layer["epl.eval_ms_per_call"] = time.Since(t0).Seconds() * 1e3 / calls

	// One GEM planning round per planner at the workload's fleet size.
	var bench *emr.DecisionBench
	p.spans.in("emr", "emr.NewDecisionBench", func() {
		bench = emr.NewDecisionBench(w.rt.NumActors(), len(w.c.Machines()))
	})
	for _, pl := range []struct{ metric, planner string }{
		{"emr.plan_ms_per_round.legacy", ""},
		{"emr.plan_ms_per_round.batch", "batch"},
	} {
		const rounds = 3
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			p.spans.in("emr", "DecisionBench.Run", func() { bench.Run(pl.planner) })
		}
		p.layer[pl.metric] = time.Since(t0).Seconds() * 1e3 / rounds
	}
}

// schedNS times Kernel.After plus Kernel.Step with the queue held at depth.
func schedNS(depth int) float64 {
	const n = 400_000
	if depth < 1 {
		depth = 1
	}
	k := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	nop := func() {}
	delay := func() sim.Duration { return sim.Duration(rng.Intn(1_000_000) + 1) }
	for i := 0; i < depth; i++ {
		k.After(delay(), nop)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.After(delay(), nop)
		k.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// execNS times Machine.Exec through to its completion callback.
func execNS() float64 {
	const n = 400_000
	k := sim.New(1)
	m := cluster.New(k, 1, cluster.M1Small).Machine(0)
	done := func() {}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Exec(sim.Millisecond, done)
		k.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// requestNS times one client request to an actor on another machine
// through to its reply, profiler attached: two messages' worth of send,
// deliver, dispatch and completion.
func requestNS() float64 {
	const n = 100_000
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	profile.New(k, c, rt)
	echo := rt.SpawnOn("Echo", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(100 * sim.Microsecond)
		ctx.Reply(nil, 64)
	}), 1)
	cl := actor.NewClient(rt, 0)
	replies := 0
	onReply := func(sim.Duration, interface{}) { replies++ }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cl.Request(echo, "echo", nil, 64, onReply)
		k.RunUntilIdle()
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	if replies != n {
		panic(fmt.Sprintf("benchmark: %d of %d isolated requests answered", replies, n))
	}
	return ns
}

// emitNS times Tracer.Emit into a ring.
func emitNS() float64 {
	const n = 1_000_000
	k := sim.New(1)
	tr := trace.New(trace.NewRing(1 << 12))
	tr.SetClock(k.Now)
	rec := trace.Record{Kind: trace.KindPropose, Tick: 1, Server: 3, Target: 4, Actor: 5, Rule: 0, Value: 1}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.Emit(rec)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
