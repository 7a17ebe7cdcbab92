package emr

import (
	"slices"

	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// This file is the EMR's control-plane transport: REPORT/RREPLY/QUERY/QREPLY
// travel as real (simulated) messages that a chaos interceptor may drop,
// delay, or duplicate. LEMs retransmit unacknowledged REPORTs with capped
// exponential backoff; GEMs evaluate at a fixed report-window deadline on
// whatever arrived, filling gaps with bounded-staleness last REPORTs;
// admission queries time out into denials. Receivers deduplicate, so
// duplication is harmless. With no interceptor installed every message is
// delivered after exactly gemLatency and the flow degenerates to the original
// lossless one.
//
// Every exchange is a recycled record (ctl) carrying what its messages,
// replies and timers need; the kernel events are the record's step funcs,
// built once per record. A record counts the events scheduled on it and goes
// back to its free list when the last has fired, so a late duplicate or
// delayed copy still finds its own record, sees an old tick and does nothing
// (DESIGN.md §5 "Control-plane records").

// lem is server srv's LEM as a control-plane endpoint.
func lem(srv cluster.MachineID) chaos.Endpoint { return chaos.LEM(int(srv)) }

// ctlKind says which exchange a record carries; a record keeps its kind.
type ctlKind uint8

const (
	ctlReport ctlKind = iota // one REPORT attempt, its acks and its retransmit timer
	ctlRReply                // one RREPLY: m.acts[lo:hi] for one LEM
	ctlQuery                 // one QUERY, its QREPLY, timeout, grant release and migration
	numCtlKinds
)

// ctl is one control-plane exchange.
type ctl struct {
	m    *Manager
	kind ctlKind
	ctlState

	// The kernel callbacks, each the kind's handler then fired: the message
	// at its receiver, the reply back, the retransmit or query timeout, the
	// reserve-grant release, the migration's outcome.
	arrive, reply, timer, release func()
	done                          func(ok bool)
	next                          *ctl // free list
}

// ctlState is what a record carries; it is zeroed on reuse.
type ctlState struct {
	tick int // the period the exchange belongs to
	snap *epl.Snapshot

	srv     cluster.MachineID // REPORT, RREPLY: the LEM
	g       *gem              // REPORT, RREPLY: the GEM
	attempt int               // REPORT: 0 for the first send
	info    *epl.ServerInfo   // REPORT: the payload
	lo, hi  int               // RREPLY: the LEM's range of m.acts

	a       Action // QUERY: the action
	repin   bool   // QUERY: restore the actor's pin at its new home
	queryID uint64 // QUERY: its trace record
	ok      bool   // QUERY: the target's answer ...
	deny    string // ... and its denial reason
	epoch   uint64 // QUERY: the reserve grant the release timer guards

	processed bool // RREPLY, QUERY: delivered (duplicates collapse)
	answered  bool // QUERY: the QREPLY or the timeout came first

	pending int // events scheduled on the record and not yet fired
}

// newCtl takes a record of the kind off its free list, or makes one.
func (m *Manager) newCtl(kind ctlKind, tick int, snap *epl.Snapshot) *ctl {
	r := m.free[kind]
	if r == nil {
		r = &ctl{m: m, kind: kind}
		switch kind {
		case ctlReport:
			r.arrive, r.reply, r.timer = r.step(m.reportArrived), r.step(m.reportAcked), r.step(m.retransmit)
		case ctlRReply:
			r.arrive = r.step(m.rreplyArrived)
		case ctlQuery:
			r.arrive, r.reply, r.timer = r.step(m.queryArrived), r.step(m.qreplyArrived), r.step(m.queryTimedOut)
			r.release = r.step(m.releaseGrant)
			r.done = func(ok bool) { m.migrated(r, ok); r.fired() }
		}
	} else {
		m.free[kind] = r.next
	}
	r.ctlState = ctlState{tick: tick, snap: snap}
	return r
}

// step makes handler h a kernel callback on r.
func (r *ctl) step(h func(*ctl)) func() {
	return func() { h(r); r.fired() }
}

// after schedules one of r's step funcs.
func (m *Manager) after(r *ctl, d sim.Duration, step func()) {
	r.pending++
	m.K.After(d, step)
}

// fired counts one of r's events done.
func (r *ctl) fired() {
	r.pending--
	r.idle()
}

// idle frees r once nothing is scheduled on it: after its last event, or
// at once when every message it was to send was dropped.
func (r *ctl) idle() {
	if r.pending == 0 {
		r.next, r.m.free[r.kind] = r.m.free[r.kind], r
	}
}

// SetChaos installs (or, with nil, removes) the control-plane fault
// interceptor. Install before Start. An already-installed tracer is handed
// to interceptors that accept one, so SetChaos/SetTracer order is free.
func (m *Manager) SetChaos(i chaos.Interceptor) {
	m.chaosI = i
	if s, ok := i.(interface{ SetTracer(*trace.Tracer) }); ok && m.tr != nil {
		s.SetTracer(m.tr)
	}
}

// sendCtl delivers one control-plane message — r's step deliver — after
// gemLatency, subject to the chaos interceptor. A duplicated message is
// delivered a second time one extra hop later; receivers are responsible for
// deduplication.
func (m *Manager) sendCtl(kind chaos.MsgKind, from, to chaos.Endpoint, r *ctl, deliver func()) {
	lat := gemLatency
	if m.chaosI != nil {
		switch d := m.chaosI.Intercept(kind, from, to); d.Verdict {
		case chaos.Drop:
			return
		case chaos.Delay:
			lat += d.Delay
		case chaos.Duplicate:
			m.after(r, lat+gemLatency, deliver)
		}
	}
	m.after(r, lat, deliver)
}

// lemReport is Alg. 1 line 11 with a lossy network: the LEM sends its
// REPORT to a randomly chosen live GEM and retransmits with doubled,
// capped backoff until the GEM's ack (an RREPLY) lands or the retry budget
// is spent. Retries re-pick among the GEMs alive at retry time, so a GEM
// crash mid-period only costs one timeout.
func (m *Manager) lemReport(srv cluster.MachineID, snap *epl.Snapshot, tickIdx, attempt int) {
	l := m.srv(srv)
	if l.acked || l.failed || m.Stats.Ticks != tickIdx {
		return
	}
	g := m.randomLiveGEM()
	if g == nil {
		return // no GEM: interaction rules still ran locally (§4.3)
	}
	if attempt > 0 {
		m.Stats.RetriedReports++
	}
	r := m.newCtl(ctlReport, tickIdx, snap)
	r.srv, r.g, r.attempt, r.info = srv, g, attempt, snap.Server(srv)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Record{Kind: trace.KindReport, Parent: m.trTick,
			Tick: int32(tickIdx), Server: int32(srv), Target: -1, Rule: -1,
			Value: float64(attempt), Detail: g.name})
	}
	m.sendCtl(chaos.Report, lem(srv), chaos.GEM(g.id), r, r.arrive)
	if attempt < reportRetries {
		wait := reportTimeout << uint(attempt)
		if max := 4 * reportTimeout; wait > max {
			wait = max
		}
		m.after(r, wait, r.timer)
	}
	r.idle()
}

// reportArrived parks a REPORT at its GEM and sends the ack.
func (m *Manager) reportArrived(r *ctl) {
	g := r.g
	if g.failed || m.Stats.Ticks != r.tick {
		return
	}
	if e := &g.last[r.srv]; e.heard != r.tick { // duplicate/retransmitted REPORTs collapse
		e.heard, e.next = r.tick, r.info
		g.heard++
	}
	m.sendCtl(chaos.RReply, chaos.GEM(g.id), lem(r.srv), r, r.reply)
}

// retransmit is the REPORT's ack timeout.
func (m *Manager) retransmit(r *ctl) { m.lemReport(r.srv, r.snap, r.tick, r.attempt+1) }

// reportAcked stops the LEM's retransmits for the period.
func (m *Manager) reportAcked(r *ctl) {
	if l := m.servers[r.srv]; m.Stats.Ticks == r.tick && !l.acked {
		l.acked = true
		if m.tr.Enabled() {
			m.tr.Emit(trace.Record{Kind: trace.KindReportAck, Parent: m.trTick,
				Tick: int32(r.tick), Server: int32(r.srv), Target: -1, Rule: -1,
				Detail: r.g.name})
		}
	}
}

// rreplyActions distributes a GEM's planned actions to their source LEMs as
// RREPLY messages, one per LEM in server order. A counting sort copies the
// actions into the period's m.acts grouped by source LEM, each LEM's in
// planned order, and each RREPLY carries its LEM's range.
func (m *Manager) rreplyActions(g *gem, tickIdx int, actions []Action) {
	if len(actions) == 0 {
		return
	}
	n := len(m.servers)
	start := slices.Grow(m.bySrc[:0], n+1)[:n+1]
	clear(start)
	for _, a := range actions {
		start[a.Src+1]++
	}
	base := len(m.acts)
	start[0] = base
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1] // start[s]: the first slot of LEM s
	}
	m.acts = slices.Grow(m.acts, len(actions))[:base+len(actions)]
	for _, a := range actions {
		m.acts[start[a.Src]] = a
		start[a.Src]++
	}
	m.bySrc = start
	lo := base
	for id, hi := range start[:n] {
		if hi == lo {
			continue
		}
		r := m.newCtl(ctlRReply, tickIdx, nil)
		r.srv, r.g, r.lo, r.hi = cluster.MachineID(id), g, lo, hi
		m.sendCtl(chaos.RReply, chaos.GEM(g.id), lem(r.srv), r, r.arrive)
		r.idle()
		lo = hi
	}
}

// rreplyArrived hands an RREPLY's actions to its LEM for the period's
// resolve.
func (m *Manager) rreplyArrived(r *ctl) {
	if r.processed || m.Stats.Ticks != r.tick {
		return
	}
	r.processed = true
	if l := m.servers[r.srv]; !l.failed {
		l.got = append(l.got, span{r.lo, r.hi})
	}
}

// queryAdmission runs one action's QUERY/QREPLY round trip: the target's
// LEM answers the admission check (Table 2a) where the promised-resource
// ledger lives; the source LEM migrates on a positive QREPLY and treats a
// timed-out query — lost message, lost reply, or dead target LEM — as a
// denial, leaving the planner to retry or replan next period.
func (m *Manager) queryAdmission(a Action, snap *epl.Snapshot, repin bool) {
	r := m.newCtl(ctlQuery, m.Stats.Ticks, snap)
	r.a, r.repin = a, repin
	r.queryID = m.tr.Emit(trace.Record{Kind: trace.KindQuery, Parent: a.traceID,
		Tick: int32(r.tick), Server: int32(a.Src), Target: int32(a.Trg),
		Actor: uint64(a.Actor.ID), Rule: -1, Value: float64(a.Pri)})
	m.sendCtl(chaos.Query, lem(a.Src), lem(a.Trg), r, r.arrive)
	m.after(r, queryTimeout, r.timer)
}

// queryArrived is the target LEM's admission check and its QREPLY.
func (m *Manager) queryArrived(r *ctl) {
	if r.processed || m.Stats.Ticks != r.tick {
		return
	}
	r.processed = true
	a := r.a
	tl := m.srv(a.Trg)
	if tl.failed {
		return // dead target LEM: silence; the source times out
	}
	r.ok, r.deny = m.checkIdleRes(a, r.snap)
	if r.ok && a.Kind == epl.KindReserve {
		tl.owner, tl.lease = a.Actor, m.Stats.Ticks
		tl.epoch++
		m.evacuateReserved(a, r.snap, r.queryID)
		r.epoch = tl.epoch
		// The QREPLY may be lost (chaos) or the period may roll over
		// before the source acts — then no transfer toward Trg ever
		// starts and the hold would block the target for every other
		// actor. The target releases its own grant after the query
		// timeout unless the owner's transfer is underway (or done).
		m.after(r, queryTimeout, r.release)
	}
	m.sendCtl(chaos.QReply, lem(a.Trg), lem(a.Src), r, r.reply)
}

// releaseGrant is the target's reserve-grant release timer.
func (m *Manager) releaseGrant(r *ctl) {
	a := r.a
	tl := m.servers[a.Trg]
	if tl.owner != a.Actor || tl.epoch != r.epoch {
		return
	}
	if m.RT.ServerOf(a.Actor) == a.Trg || m.RT.MigratingTo(a.Actor) == a.Trg {
		return // the admitted transfer went ahead
	}
	tl.dropReservation()
	m.Stats.ReleasedReservations++
	m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: r.queryID,
		Tick: int32(m.Stats.Ticks), Server: int32(a.Trg), Target: -1,
		Actor: uint64(a.Actor.ID), Rule: -1, Detail: "reserve-released"})
}

// qreplyArrived is the source LEM acting on the target's answer.
func (m *Manager) qreplyArrived(r *ctl) {
	if r.answered || m.Stats.Ticks != r.tick {
		return
	}
	r.answered = true
	a := r.a
	if !r.ok {
		m.Stats.DeniedAdmissions++
		m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: r.queryID,
			Tick: int32(r.tick), Server: int32(a.Trg), Target: -1,
			Actor: uint64(a.Actor.ID), Rule: -1, Detail: r.deny})
		return
	}
	admitID := m.tr.Emit(trace.Record{Kind: trace.KindAdmit, Parent: r.queryID,
		Tick: int32(r.tick), Server: int32(a.Trg), Target: -1,
		Actor: uint64(a.Actor.ID), Rule: -1})
	m.execMigration(r, admitID)
}

// queryTimedOut counts an unanswered QUERY as a denial.
func (m *Manager) queryTimedOut(r *ctl) {
	if r.answered || m.Stats.Ticks != r.tick {
		return
	}
	r.answered = true
	m.Stats.QueryTimeouts++
	m.Stats.DeniedAdmissions++
	m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: r.queryID,
		Tick: int32(r.tick), Server: int32(r.a.Trg), Target: -1,
		Actor: uint64(r.a.Actor.ID), Rule: -1, Detail: "timeout"})
}

// evacuateReserved clears a freshly dedicated server for its owner: the
// resident actors (save the owner and pinned ones) drain to the least
// loaded unreserved servers, like a scale-in drain (see
// Config.ReserveEvacuate).
func (m *Manager) evacuateReserved(a Action, snap *epl.Snapshot, parent uint64) {
	if !m.Cfg.ReserveEvacuate {
		return
	}
	targets := m.evacTargets(a.Trg, snap)
	if len(targets) == 0 {
		return
	}
	for i, ref := range m.RT.ActorsOn(a.Trg) {
		if ref == a.Actor || m.RT.Pinned(ref) {
			continue
		}
		m.RT.MigrateTraced(ref, targets[i%len(targets)], parent, m.countMigration)
	}
}

// execMigration carries out a query's admitted action via live migration;
// parent is the admission record's trace id (0 untraced), inherited by the
// migration's transfer record.
func (m *Manager) execMigration(r *ctl, parent uint64) {
	a := r.a
	if m.RT.ServerOf(a.Actor) != a.Src {
		return // the actor moved during the admission round trip
	}
	if r.repin {
		m.RT.Unpin(a.Actor)
	}
	r.pending++ // the migration's outcome
	m.RT.MigrateTraced(a.Actor, a.Trg, parent, r.done)
}

// migrated is the admitted migration's outcome.
func (m *Manager) migrated(r *ctl, ok bool) {
	a := r.a
	if r.repin {
		m.RT.Pin(a.Actor)
	}
	if ok {
		m.Stats.ExecutedMigrations++
	} else if l := m.srv(a.Trg); a.Kind == epl.KindReserve && l.owner == a.Actor {
		l.dropReservation()
	}
}
