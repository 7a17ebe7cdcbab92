package emr

import (
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/epl"
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

// lem is server srv's LEM as a control-plane endpoint.
func lem(srv cluster.MachineID) chaos.Endpoint { return chaos.LEM(int(srv)) }

// SetChaos installs (or, with nil, removes) the control-plane fault
// interceptor. Install before Start. An already-installed tracer is handed
// to interceptors that accept one, so SetChaos/SetTracer order is free.
func (m *Manager) SetChaos(i chaos.Interceptor) {
	m.chaosI = i
	if s, ok := i.(interface{ SetTracer(*trace.Tracer) }); ok && m.tr != nil {
		s.SetTracer(m.tr)
	}
}

// sendCtl delivers one control-plane message after gemLatency, subject to
// the chaos interceptor. A duplicated message is delivered a second time one
// extra hop later; receivers are responsible for deduplication.
func (m *Manager) sendCtl(kind chaos.MsgKind, from, to chaos.Endpoint, deliver func()) {
	lat := gemLatency
	if m.chaosI != nil {
		switch d := m.chaosI.Intercept(kind, from, to); d.Verdict {
		case chaos.Drop:
			return
		case chaos.Delay:
			lat += d.Delay
		case chaos.Duplicate:
			m.K.After(lat+gemLatency, deliver)
		}
	}
	m.K.After(lat, deliver)
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
	info := snap.Server(srv)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Record{Kind: trace.KindReport, Parent: m.trTick,
			Tick: int32(tickIdx), Server: int32(srv), Target: -1, Rule: -1,
			Value: float64(attempt), Detail: g.name})
	}
	m.sendCtl(chaos.Report, lem(srv), chaos.GEM(g.id), func() {
		if g.failed || m.Stats.Ticks != tickIdx {
			return
		}
		if e := &g.last[srv]; e.heard != tickIdx { // duplicate/retransmitted REPORTs collapse
			e.heard, e.next = tickIdx, info
			g.heard++
		}
		m.sendCtl(chaos.RReply, chaos.GEM(g.id), lem(srv), func() {
			if m.Stats.Ticks == tickIdx && !l.acked {
				l.acked = true
				if m.tr.Enabled() {
					m.tr.Emit(trace.Record{Kind: trace.KindReportAck, Parent: m.trTick,
						Tick: int32(tickIdx), Server: int32(srv), Target: -1, Rule: -1,
						Detail: g.name})
				}
			}
		})
	})
	if attempt < reportRetries {
		wait := reportTimeout << uint(attempt)
		if max := 4 * reportTimeout; wait > max {
			wait = max
		}
		m.K.After(wait, func() { m.lemReport(srv, snap, tickIdx, attempt+1) })
	}
}

// rreplyActions distributes a GEM's planned actions to their source LEMs as
// RREPLY messages, one per LEM in server order (deduplicated per
// destination).
func (m *Manager) rreplyActions(g *gem, tickIdx int, actions []Action) {
	if len(actions) == 0 {
		return
	}
	for _, a := range actions {
		l := m.srv(a.Src)
		l.rreply = append(l.rreply, a)
	}
	for id, l := range m.servers {
		if l.rreply == nil {
			continue
		}
		srv, acts := cluster.MachineID(id), l.rreply
		l.rreply = nil
		delivered := false
		m.sendCtl(chaos.RReply, chaos.GEM(g.id), lem(srv), func() {
			if delivered || m.Stats.Ticks != tickIdx {
				return
			}
			delivered = true
			if l.failed {
				return
			}
			l.gemActions = append(l.gemActions, acts...)
		})
	}
}

// queryAdmission runs one action's QUERY/QREPLY round trip: the target's
// LEM answers the admission check (Table 2a) where the promised-resource
// ledger lives; the source LEM migrates on a positive QREPLY and treats a
// timed-out query — lost message, lost reply, or dead target LEM — as a
// denial, leaving the planner to retry or replan next period.
func (m *Manager) queryAdmission(a Action, snap *epl.Snapshot, repin bool) {
	tickIdx := m.Stats.Ticks
	processed := false // dedups duplicate QUERY deliveries at the target
	answered := false  // dedups duplicate QREPLYs and the timeout at the source
	queryID := m.tr.Emit(trace.Record{Kind: trace.KindQuery, Parent: a.traceID,
		Tick: int32(tickIdx), Server: int32(a.Src), Target: int32(a.Trg),
		Actor: uint64(a.Actor.ID), Rule: -1, Value: float64(a.Pri)})
	m.sendCtl(chaos.Query, lem(a.Src), lem(a.Trg), func() {
		if processed || m.Stats.Ticks != tickIdx {
			return
		}
		processed = true
		tl := m.srv(a.Trg)
		if tl.failed {
			return // dead target LEM: silence; the source times out
		}
		ok, denyReason := m.checkIdleRes(a, snap)
		if ok && a.Kind == epl.KindReserve {
			tl.owner, tl.lease = a.Actor, m.Stats.Ticks
			tl.epoch++
			m.evacuateReserved(a, snap, queryID)
			epoch := tl.epoch
			// The QREPLY may be lost (chaos) or the period may roll over
			// before the source acts — then no transfer toward Trg ever
			// starts and the hold would block the target for every other
			// actor. The target releases its own grant after the query
			// timeout unless the owner's transfer is underway (or done).
			m.K.After(queryTimeout, func() {
				if tl.owner != a.Actor || tl.epoch != epoch {
					return
				}
				if m.RT.ServerOf(a.Actor) == a.Trg || m.RT.MigratingTo(a.Actor) == a.Trg {
					return // the admitted transfer went ahead
				}
				tl.dropReservation()
				m.Stats.ReleasedReservations++
				m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: queryID,
					Tick: int32(m.Stats.Ticks), Server: int32(a.Trg), Target: -1,
					Actor: uint64(a.Actor.ID), Rule: -1, Detail: "reserve-released"})
			})
		}
		m.sendCtl(chaos.QReply, lem(a.Trg), lem(a.Src), func() {
			if answered || m.Stats.Ticks != tickIdx {
				return
			}
			answered = true
			if !ok {
				m.Stats.DeniedAdmissions++
				m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: queryID,
					Tick: int32(tickIdx), Server: int32(a.Trg), Target: -1,
					Actor: uint64(a.Actor.ID), Rule: -1, Detail: denyReason})
				return
			}
			admitID := m.tr.Emit(trace.Record{Kind: trace.KindAdmit, Parent: queryID,
				Tick: int32(tickIdx), Server: int32(a.Trg), Target: -1,
				Actor: uint64(a.Actor.ID), Rule: -1})
			m.execMigration(a, repin, admitID)
		})
	})
	m.K.After(queryTimeout, func() {
		if answered || m.Stats.Ticks != tickIdx {
			return
		}
		answered = true
		m.Stats.QueryTimeouts++
		m.Stats.DeniedAdmissions++
		m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: queryID,
			Tick: int32(tickIdx), Server: int32(a.Trg), Target: -1,
			Actor: uint64(a.Actor.ID), Rule: -1, Detail: "timeout"})
	})
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
		m.RT.MigrateTraced(ref, targets[i%len(targets)], parent, func(ok bool) {
			if ok {
				m.Stats.ExecutedMigrations++
			}
		})
	}
}

// execMigration carries out an admitted action via live migration; parent
// is the admission record's trace id (0 untraced), inherited by the
// migration's transfer record.
func (m *Manager) execMigration(a Action, repin bool, parent uint64) {
	if m.RT.ServerOf(a.Actor) != a.Src {
		return // the actor moved during the admission round trip
	}
	if repin {
		m.RT.Unpin(a.Actor)
	}
	m.RT.MigrateTraced(a.Actor, a.Trg, parent, func(ok bool) {
		if repin {
			m.RT.Pin(a.Actor)
		}
		if ok {
			m.Stats.ExecutedMigrations++
		} else if l := m.srv(a.Trg); a.Kind == epl.KindReserve && l.owner == a.Actor {
			l.dropReservation()
		}
	})
}
