package emr

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// This file holds the reference the GEM's report table is compared with:
// refGEM keeps the three structures the table replaced — the period's
// arrival list, its dedup set and the last-REPORT cache, maps keyed by server
// and walked through sorted keys — and is fed from a log of REPORT
// deliveries the test's own interceptor writes. Every evaluation of the real
// GEM must see the scope, the fresh set, the stale fills and the verdict on
// whether to plan the reference computes from that log.

type refCached struct {
	info *epl.ServerInfo
	tick int
}

type refReport struct {
	srv  cluster.MachineID
	info *epl.ServerInfo
}

type staleFill struct {
	srv  cluster.MachineID
	tick int // period of the REPORT standing in
}

// tableEval is what one GEM evaluation saw.
type tableEval struct {
	gem   int
	scope []cluster.MachineID // ascending
	fresh []cluster.MachineID // ascending
	stale []staleFill         // ascending by server
	ok    bool                // non-empty scope: the GEM planned
}

func (e tableEval) String() string {
	return fmt.Sprintf("gem%d scope=%v fresh=%v stale=%v ok=%v", e.gem, e.scope, e.fresh, e.stale, e.ok)
}

func (e tableEval) equal(o tableEval) bool {
	return e.gem == o.gem && e.ok == o.ok && slices.Equal(e.scope, o.scope) &&
		slices.Equal(e.fresh, o.fresh) && slices.Equal(e.stale, o.stale)
}

type refGEM struct {
	id        int
	failed    bool
	reports   []refReport
	got       map[cluster.MachineID]bool
	cache     map[cluster.MachineID]refCached
	evaluated int // last period evaluated, to count late deliveries
}

func (g *refGEM) reset() {
	g.reports = nil
	g.got = map[cluster.MachineID]bool{}
}

// deliver is a REPORT arriving; late says the period's evaluation is over.
func (g *refGEM) deliver(srv cluster.MachineID, info *epl.ServerInfo, tick int) (late bool) {
	if !g.got[srv] {
		g.got[srv] = true
		g.reports = append(g.reports, refReport{srv, info})
	}
	return g.evaluated == tick
}

func sortedKeys[V any](m map[cluster.MachineID]V) []cluster.MachineID {
	keys := make([]cluster.MachineID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// evaluate is the head of the parent's gemProcess, verbatim in structure:
// refresh the cache from the arrivals, stand in for the missing from cache
// entries at most two periods old, then plan over a non-empty scope.
func (g *refGEM) evaluate(tick int, lemFailed, up func(cluster.MachineID) bool) tableEval {
	g.evaluated = tick
	for _, r := range g.reports {
		g.cache[r.srv] = refCached{r.info, tick}
	}
	ev := tableEval{gem: g.id, fresh: sortedKeys(g.got)}
	ev.scope = slices.Clone(ev.fresh)
	if len(g.reports) > 0 {
		for _, srv := range sortedKeys(g.cache) {
			c := g.cache[srv]
			if tick-c.tick > 2 {
				delete(g.cache, srv)
				continue
			}
			if g.got[srv] || lemFailed(srv) || !up(srv) {
				continue
			}
			ev.stale = append(ev.stale, staleFill{srv, c.tick})
			ev.scope = append(ev.scope, srv)
		}
	}
	slices.Sort(ev.scope)
	ev.ok = len(ev.scope) > 0
	return ev
}

// sliceSink keeps every record.
type sliceSink struct{ recs []trace.Record }

func (s *sliceSink) Emit(r trace.Record) { s.recs = append(s.recs, r) }

// tableHarness runs a real Manager and the reference side by side. It is the
// chaos interceptor: it draws each control message's verdict and, for a
// REPORT, logs the deliveries that verdict produces for the reference on the
// schedule sendCtl gives the real ones.
type tableHarness struct {
	t    *testing.T
	k    *sim.Kernel
	c    *cluster.Cluster
	m    *Manager
	rng  *rand.Rand
	sink *sliceSink
	seen int // trace records already read

	refs      []*refGEM
	lemFailed map[cluster.MachineID]bool
	tick      int
	snap      *epl.Snapshot // the current period's, for REPORT payloads
	// verdict, when set, replaces the seeded draw.
	verdict func(kind chaos.MsgKind, srv cluster.MachineID, tick int) chaos.Decision
	// onTick, when set, runs at the top of each period, before Tick.
	onTick func(tick int)

	evals, staleFills, late, dups, skipped int
}

// Delays are chosen so that no REPORT lands on the evaluation instant
// (t0+16 ms) or in the microsecond after it, where the harness probes: sends
// leave at t0, +4 ms and +12 ms and take 1 ms (2 ms for a duplicate's copy).
var tableDelays = []sim.Duration{2300, 7700, 13100, 21500, 1100 * sim.Millisecond}

func newTableHarness(t *testing.T, seed int64, machines, gems int) *tableHarness {
	kern := sim.New(seed)
	typ := cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 1024, NetMbps: 100, Boot: 1500 * sim.Millisecond, SpeedFac: 1}
	c := cluster.New(kern, machines, typ)
	rt := actor.NewRuntime(kern, c)
	h := &tableHarness{t: t, k: kern, c: c, rng: rand.New(rand.NewSource(seed)),
		sink: &sliceSink{}, lemFailed: map[cluster.MachineID]bool{}}
	h.m = New(kern, c, rt, profile.New(kern, c, rt), epl.MustParse(`true => pin(Nothing(n));`),
		Config{Period: sim.Second, NumGEMs: gems, InstanceType: typ})
	for i := 0; i < gems; i++ {
		h.refs = append(h.refs, &refGEM{id: i, got: map[cluster.MachineID]bool{}, cache: map[cluster.MachineID]refCached{}})
	}
	tr := trace.New(h.sink)
	tr.SetClock(kern.Now)
	h.m.SetTracer(tr)
	h.m.SetChaos(h)
	kern.Every(sim.Second, func() bool {
		h.tick = h.m.Stats.Ticks + 1
		for _, g := range h.refs {
			g.reset()
		}
		if h.onTick != nil {
			h.onTick(h.tick)
		}
		h.snap = h.m.Tick()
		kern.After(reportWindow+1, h.probe)
		return true
	})
	return h
}

func (h *tableHarness) Intercept(kind chaos.MsgKind, from, to chaos.Endpoint) chaos.Decision {
	srv, gem := cluster.MachineID(to.ID), to.ID
	if kind == chaos.Report {
		srv = cluster.MachineID(from.ID)
	}
	d := chaos.Decision{Verdict: chaos.Deliver}
	if h.verdict != nil {
		d = h.verdict(kind, srv, h.tick)
	} else {
		switch p := h.rng.Float64(); {
		case p < 0.25:
			d.Verdict = chaos.Drop
		case p < 0.50:
			d = chaos.Decision{Verdict: chaos.Delay, Delay: tableDelays[h.rng.Intn(len(tableDelays))]}
		case p < 0.65:
			d.Verdict = chaos.Duplicate
		}
	}
	if kind != chaos.Report {
		return d
	}
	g, tick := h.refs[gem], h.tick
	deliver := func() {
		if g.failed || h.tick != tick {
			return
		}
		// Tick has returned by now, and h.tick == tick makes h.snap this
		// period's snapshot.
		info := h.snap.Server(srv)
		if info == nil {
			h.t.Fatalf("tick %d: server %d's REPORT has no payload", tick, srv)
		}
		if g.deliver(srv, info, tick) {
			h.late++
		}
	}
	switch d.Verdict {
	case chaos.Deliver:
		h.k.After(gemLatency, deliver)
	case chaos.Delay:
		h.k.After(gemLatency+d.Delay, deliver)
	case chaos.Duplicate:
		h.dups++
		h.k.After(gemLatency, deliver)
		h.k.After(2*gemLatency, deliver)
	}
	return d
}

func (h *tableHarness) failGEM(id int, down bool) {
	h.refs[id].failed = down
	if down {
		h.m.FailGEM(id)
	} else {
		h.m.RecoverGEM(id)
	}
}

func (h *tableHarness) failLEM(srv cluster.MachineID, down bool) {
	h.lemFailed[srv] = down
	ok := false
	if down {
		ok = h.m.FailLEM(srv)
	} else {
		ok = h.m.RecoverLEM(srv)
	}
	if !ok {
		h.t.Fatalf("LEM %d fail=%v rejected", srv, down)
	}
}

// observed reads the evaluations the real GEMs made this period off the
// trace (each GEM's stale-report records precede its gem-eval record) and
// off the tables.
func (h *tableHarness) observed() []tableEval {
	var out []tableEval
	var stale []staleFill
	for _, r := range h.sink.recs[h.seen:] {
		switch {
		case int(r.Tick) != h.tick:
		case r.Kind == trace.KindStaleReport:
			stale = append(stale, staleFill{cluster.MachineID(r.Server), int(r.Value)})
		case r.Kind == trace.KindGemEval:
			var reports, combined int
			ev := tableEval{stale: stale, ok: !strings.HasSuffix(r.Detail, " skipped")}
			if _, err := fmt.Sscanf(r.Detail, "gem%d reports=%d combined=%d", &ev.gem, &reports, &combined); err != nil {
				h.t.Fatalf("gem-eval detail %q: %v", r.Detail, err)
			}
			stale = nil
			g := h.m.gems[ev.gem]
			for id := range g.last {
				if g.last[id].heard == h.tick {
					ev.fresh = append(ev.fresh, cluster.MachineID(id))
				}
				if h.m.inScope(g, cluster.MachineID(id), h.tick) {
					ev.scope = append(ev.scope, cluster.MachineID(id))
				}
			}
			if len(ev.fresh) != reports || len(ev.scope) != combined || len(ev.scope) != len(ev.fresh)+len(ev.stale) {
				h.t.Fatalf("tick %d: %v disagrees with its own record %q", h.tick, ev, r.Detail)
			}
			out = append(out, ev)
		}
	}
	h.seen = len(h.sink.recs)
	return out
}

// probe runs a microsecond after the period's evaluation.
func (h *tableHarness) probe() {
	var want []tableEval
	for _, g := range h.refs {
		if !g.failed {
			want = append(want, g.evaluate(h.tick,
				func(id cluster.MachineID) bool { return h.lemFailed[id] },
				func(id cluster.MachineID) bool { return h.c.Machine(id).Up() }))
		}
	}
	got := h.observed()
	if len(got) != len(want) {
		h.t.Fatalf("tick %d: %d evaluations, reference has %d", h.tick, len(got), len(want))
	}
	for i := range want {
		if !got[i].equal(want[i]) {
			h.t.Fatalf("tick %d:\n table     %v\n reference %v", h.tick, got[i], want[i])
		}
		h.evals++
		h.staleFills += len(want[i].stale)
		if !want[i].ok {
			h.skipped++
		}
	}
}

func vmSpec(typ cluster.InstanceType) *cluster.ProvSpec {
	return &cluster.ProvSpec{Class: cluster.VM, BootMin: typ.Boot, Capacity: -1}
}

// Over 24 periods at four seeds, with a quarter of the control messages
// dropped, a quarter delayed (some past the window, some past the period) and
// a sixth duplicated, a GEM crashed mid-window and recovered, a LEM crashed
// and recovered, a machine crashed and repaired at the top of a period, and a
// machine provisioned mid-run, every evaluation matches the reference.
func TestReportTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := newTableHarness(t, seed, 6, 4)
		at := func(period int, off sim.Duration, fn func()) {
			h.k.At(sim.Time(sim.Duration(period+int(seed)-1)*sim.Second+off), fn)
		}
		// Mid-window: what gem1 heard this period it must not remember when
		// it is back two periods later.
		at(5, 8*sim.Millisecond, func() { h.failGEM(1, true) })
		at(6, 500*sim.Millisecond, func() { h.failGEM(1, false) })
		at(7, 300*sim.Millisecond, func() { h.failLEM(2, true) })
		at(12, 300*sim.Millisecond, func() { h.failLEM(2, false) })
		at(9, 100*sim.Millisecond, func() {
			typ := h.c.Machine(0).Type
			if h.c.ProvisionClass(typ, vmSpec(typ), nil) == nil {
				t.Fatal("provision refused")
			}
		})
		at(11, 400*sim.Millisecond, func() {
			if !h.c.Fail(3) {
				t.Fatal("crash of machine 3 refused")
			}
		})
		h.onTick = func(tick int) {
			if tick == 12+int(seed)-1 && !h.c.Repair(3) {
				t.Fatal("repair of machine 3 refused")
			}
		}
		h.k.Run(sim.Time(24*sim.Second + 500*sim.Millisecond))

		if h.tick != 24 || h.evals < 24*3 {
			t.Fatalf("seed %d: %d periods, %d evaluations compared", seed, h.tick, h.evals)
		}
		if h.staleFills == 0 || h.late == 0 || h.dups == 0 || h.skipped == 0 || h.skipped == h.evals {
			t.Fatalf("seed %d: vacuous run: stale=%d late=%d dups=%d skipped=%d/%d",
				seed, h.staleFills, h.late, h.dups, h.skipped, h.evals)
		}
		if len(h.m.servers) != 7 || len(h.m.gems[0].last) != 7 {
			t.Fatalf("seed %d: tables cover %d/%d servers, want the 7-machine fleet",
				seed, len(h.m.servers), len(h.m.gems[0].last))
		}
		if h.m.Stats.StaleReportsUsed != h.staleFills {
			t.Fatalf("seed %d: StaleReportsUsed = %d, reference filled %d", seed, h.m.Stats.StaleReportsUsed, h.staleFills)
		}
	}
}

// acks counts the period's REPORT acknowledgements that reached a server.
func (h *tableHarness) acks(srv cluster.MachineID, tick int) (n int) {
	for _, r := range h.sink.recs {
		if r.Kind == trace.KindReportAck && int(r.Tick) == tick && cluster.MachineID(r.Server) == srv {
			n++
		}
	}
	return n
}

// A REPORT delayed past the evaluation is acknowledged — the LEM stops
// retransmitting — and is otherwise as good as lost: the GEM did not
// evaluate it, and must not stand it in for the next period's missing one.
func TestLateReportIsAckedNotCached(t *testing.T) {
	h := newTableHarness(t, 1, 2, 1)
	h.verdict = func(kind chaos.MsgKind, srv cluster.MachineID, tick int) chaos.Decision {
		switch {
		case kind == chaos.Report && srv == 1 && tick == 1:
			return chaos.Decision{Verdict: chaos.Delay, Delay: 20 * sim.Millisecond}
		case kind == chaos.Report && srv == 1 && tick == 2:
			return chaos.Decision{Verdict: chaos.Drop}
		}
		return chaos.Decision{Verdict: chaos.Deliver}
	}
	h.k.Run(sim.Time(2500 * sim.Millisecond))
	if h.late == 0 {
		t.Fatal("no REPORT arrived late; test is vacuous")
	}
	if h.acks(1, 1) != 1 {
		t.Fatalf("server 1's late REPORT drew %d acks in period 1, want 1", h.acks(1, 1))
	}
	if e := h.m.gems[0].last[1]; e.info != nil || e.tick != 0 {
		t.Fatalf("the late REPORT was remembered: %+v", e)
	}
	if h.m.Stats.StaleReportsUsed != 0 {
		t.Fatalf("StaleReportsUsed = %d: a REPORT the GEM never evaluated stood in for a lost one", h.m.Stats.StaleReportsUsed)
	}
}
