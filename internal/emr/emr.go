// Package emr implements PLASMA's elasticity management runtime (EMR): the
// elasticity execution runtime of §4, organised as per-server local
// elasticity managers (LEMs, Alg. 1) and a configurable number of global
// elasticity managers (GEMs, Alg. 2).
//
// Every elasticity period:
//
//  1. each LEM evaluates the interaction elasticity rules against its local
//     profiling snapshot (applyActRules) and REPORTs resource-rule actor and
//     server runtime info to a randomly chosen GEM;
//  2. each GEM that received more than K reports builds a global runtime
//     snapshot over its reporting servers, evaluates the resource elasticity
//     rules (applyResRules), and RREPLYs migration actions to the LEMs;
//  3. LEMs resolve conflicting actions by priority (resolveActions), QUERY
//     the target server's LEM for admission (checkIdleRes), and migrate on
//     QREPLY via the actor runtime's live migration.
//
// GEMs also drive cluster scale-out/in: when all of a GEM's managed servers
// are overloaded (resp. under-utilized) it polls the other GEMs and adjusts
// the number of servers on a majority of corroborating views.
package emr

import (
	"sort"
	"strconv"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Action is a planned actor migration (Table 2b).
type Action struct {
	Actor   actor.Ref
	Src     cluster.MachineID // server currently holding the actor
	Trg     cluster.MachineID // target server
	Kind    epl.BehaviorKind
	Res     epl.Resource // resource the action is accounted against
	Pri     int
	Partner actor.Ref // colocation partner / reservation owner at the target

	traceID uint64 // id of the action's KindPropose record (0 untraced)
}

// Config tunes the EMR.
type Config struct {
	// Period is the elasticity time period (user-set, §2.2).
	Period sim.Duration
	// NumGEMs is the number of global elasticity managers (§5.7).
	NumGEMs int
	// K is the report-count threshold before a GEM acts (Alg. 2 line 8).
	K int
	// MinResidence is the minimum time an actor must stay on a server
	// before it may move again; 0 defaults to Period (§4.3 stability).
	MinResidence sim.Duration
	// ScaleOut/ScaleIn enable dynamic resource allocation.
	ScaleOut bool
	ScaleIn  bool
	// MinServers bounds scale-in; InstanceType is what scale-out provisions.
	MinServers   int
	InstanceType cluster.InstanceType
	// ProvSpecs is the provisioning spectrum scale-out draws from (warm
	// pool, container, VM, ...). Classes are tried in policy-preference
	// order (a `provclass` rule), then spec order, falling to the next class
	// when a pool is exhausted. Empty defaults to one unlimited VM class
	// booting in InstanceType.Boot.
	ProvSpecs []cluster.ProvSpec
	// ReserveTTL, when positive, is how many periods a granted reservation
	// outlives the last reserve intent naming its owner: a reserve rule that
	// stops firing (the anchor went cold, or the dedicated server pulled it
	// back under the rule's threshold) lets the lease lapse and returns the
	// server to the shared pool after ReserveTTL periods. Zero keeps the
	// legacy behavior — reservations persist until the owner moves or dies —
	// which on drifting workloads fragments the fleet one stale dedication
	// at a time.
	ReserveTTL int
	// ReserveEvacuate, when set, drains a freshly dedicated server's other
	// residents to the least loaded unreserved servers at grant time.
	// Without it a dedication is exclusivity layered over whatever already
	// lived there — the owner shares its "dedicated" CPU with the old
	// residents, and balance cannot fix that because reserved servers are
	// outside its scope. Off by default: the eviction burst costs transfer
	// bandwidth, which only pays off when reservations target loaded
	// servers (skewed streams), not when they land on idle ones.
	ReserveEvacuate bool
}

// priority orders conflicting actions; higher wins. Reserve > pin > balance
// > colocate > separate: reserve is the most specific placement demand, pin
// blocks everything below it, and balance outranks colocate as in the
// paper's §4.3 example.
func priority(k epl.BehaviorKind) int {
	switch k {
	case epl.KindReserve:
		return 45
	case epl.KindPin:
		return 42
	case epl.KindBalance:
		return 40
	case epl.KindColocate:
		return 20
	case epl.KindSeparate:
		return 10
	}
	return 0
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = 60 * sim.Second
	}
	if c.NumGEMs <= 0 {
		c.NumGEMs = 1
	}
	if c.MinResidence == 0 {
		c.MinResidence = c.Period
	}
	if c.MinServers <= 0 {
		c.MinServers = 1
	}
	if len(c.ProvSpecs) == 0 {
		c.ProvSpecs = []cluster.ProvSpec{{Class: cluster.VM, BootMin: c.InstanceType.Boot, Capacity: -1}}
	}
	return c
}

// The control plane's schedule within one period, from its start t0. Nothing
// in the tree ever set these, so they are constants, not Config:
//
//	t0      every live LEM sends its REPORT to a random live GEM
//	+1 ms   REPORTs arrive (gemLatency); the GEM's ack leaves
//	+4 ms   an unacked LEM retransmits (reportTimeout) ...
//	+12 ms  ... and again, the wait doubled (reportRetries = 2)
//	+16 ms  GEMs evaluate on what arrived, filling gaps with REPORTs at
//	        most stalePeriods old (reportWindow); RREPLYs leave
//	+20 ms  LEMs resolve the period's actions and send QUERYs (execDelay)
//	+24 ms  an unanswered QUERY is a denial (queryTimeout)
const (
	gemLatency    = sim.Millisecond             // one control-plane message hop
	reportTimeout = 4 * gemLatency              // ack wait before a retransmit; doubles per attempt, capped at 4x
	reportRetries = 2                           // retransmissions per period (up to three sends)
	reportWindow  = 4 * reportTimeout           // t0 -> GEM evaluation
	execDelay     = reportWindow + 4*gemLatency // t0 -> LEM resolve/execute; later RREPLYs are lost for the period
	queryTimeout  = 4 * gemLatency              // QREPLY wait before the source counts a denial
	stalePeriods  = 2                           // oldest last REPORT that may stand in for a lost one
)

// Stats counts EMR activity for experiments.
type Stats struct {
	Ticks              int
	PlannedActions     int
	ExecutedMigrations int
	DeniedAdmissions   int
	ResolvedConflicts  int
	ScaleOuts          int
	ScaleIns           int

	// Control-plane robustness counters.
	RetriedReports   int // REPORT retransmissions after an ack timeout
	QueryTimeouts    int // admission queries treated as denials on timeout
	StaleReportsUsed int // last REPORTs standing in for lost ones
	// ReleasedReservations counts target-side reserve grants released
	// because the admitted transfer never started (lost QREPLY or period
	// rollover before the source acted).
	ReleasedReservations int
	// ExpiredReservations counts reservations released because no reserve
	// intent re-named their owner for Cfg.ReserveTTL periods.
	ExpiredReservations int
	// FailedProvisions counts scale-out provisions that never reached Up
	// (boot retries exhausted, or crashed/decommissioned mid-boot).
	FailedProvisions int
}

// Manager wires the EMR to an application: policy, profiler, cluster, and
// actor runtime. Create with New; the caller's period loop calls Tick.
type Manager struct {
	K    *sim.Kernel
	C    *cluster.Cluster
	RT   *actor.Runtime
	Prof *profile.Profiler
	Pol  *epl.Policy
	Cfg  Config

	gems []*gem
	// servers is the control plane's one record per machine, indexed by
	// MachineID (ids are dense: cluster.newMachine numbers them in order)
	// and grown to the fleet at the top of each period; srv also reaches a
	// machine provisioned since.
	servers []*server

	Stats   Stats
	loop    *bool // the Start shim's live-loop flag; nil when stopped
	booting int   // provisioned machines not yet up (scale-out cooldown)

	// provSpecs is the manager's mutable copy of Cfg.ProvSpecs (warm-pool
	// capacity depletes); provPref is the class preference the policy's
	// provclass rules last expressed, refreshed at every GEM evaluation.
	provSpecs []cluster.ProvSpec
	provPref  []cluster.ProvClass

	chaosI chaos.Interceptor // nil = reliable control plane

	tr     *trace.Tracer // nil = decisions untraced
	trTick uint64        // current period's KindTick record id

	rd round // the planning round's state, reused across periods
}

// SetTracer installs (or removes, with nil) the decision tracer, fanning it
// out to the actor runtime, the cluster, and any already-installed chaos
// interceptor that accepts one. Install before Start.
func (m *Manager) SetTracer(t *trace.Tracer) {
	m.tr = t
	m.RT.SetTracer(t)
	m.C.SetTracer(t)
	if s, ok := m.chaosI.(interface{ SetTracer(*trace.Tracer) }); ok {
		s.SetTracer(t)
	}
}

// evalObs bridges epl evaluation telemetry into trace records, parented to
// the current tick (LEM pass) or the GEM's evaluation record.
type evalObs struct {
	m      *Manager
	parent uint64
	tick   int32
	ctx    string
}

func (o *evalObs) RuleEvaluated(rule *epl.Rule, examined, fired int) {
	o.m.tr.Emit(trace.Record{Kind: trace.KindRuleEval, Parent: o.parent, Tick: o.tick,
		Server: -1, Target: -1, Rule: int32(rule.Index), Value: float64(fired),
		Detail: o.ctx + " examined=" + strconv.Itoa(examined)})
}

func (o *evalObs) RuleFired(rule *epl.Rule, anchor actor.Ref, srv cluster.MachineID, values []epl.FeatureValue) {
	var det []byte
	for i, v := range values {
		if i > 0 {
			det = append(det, "; "...)
		}
		det = append(det, v.Feature...)
		det = append(det, " = "...)
		det = strconv.AppendFloat(det, v.Value, 'g', -1, 64)
	}
	o.m.tr.Emit(trace.Record{Kind: trace.KindRuleFire, Parent: o.parent, Tick: o.tick,
		Server: int32(srv), Target: -1, Actor: uint64(anchor.ID), Rule: int32(rule.Index),
		Detail: string(det)})
}

// obs returns the evaluation observer for one pass, or nil when tracing is
// off (epl.EvaluateObserved with nil is exactly epl.Evaluate).
func (m *Manager) obs(parent uint64, tick int, ctx string) epl.EvalObserver {
	if !m.tr.Enabled() {
		return nil
	}
	return &evalObs{m: m, parent: parent, tick: int32(tick), ctx: ctx}
}

// tracePropose stamps each planned action with its KindPropose record.
func (m *Manager) tracePropose(actions []Action, parent uint64, tickIdx int) {
	if !m.tr.Enabled() {
		return
	}
	for i := range actions {
		a := &actions[i]
		a.traceID = m.tr.Emit(trace.Record{Kind: trace.KindPropose, Parent: parent,
			Tick: int32(tickIdx), Server: int32(a.Src), Target: int32(a.Trg),
			Actor: uint64(a.Actor.ID), Rule: -1, Value: float64(a.Pri),
			Detail: a.Kind.String()})
	}
}

// server is what the control plane keeps about one machine: its LEM's
// period state, and the placement state every planner and admission check
// consults.
type server struct {
	gemActions []Action // actions received via RREPLY this period
	rreply     []Action // a GEM's actions for this LEM, between planning and RREPLY

	// admission ledger: extra resource share already promised to inbound
	// actors this period, per resource.
	promised [3]float64

	failed bool // crashed LEM: no reports, no queries answered, no actions
	acked  bool // this period's REPORT was acknowledged (stops retransmits)

	// owner is the actor the server is dedicated to (zero: shared pool).
	// epoch counts grants, so a stale release-on-timeout closure from an
	// earlier grant cannot revoke a newer one of the same server. lease is
	// the last tick a reserve intent named the owner (grants count); with
	// Cfg.ReserveTTL set, cleanupReservations expires one that stopped
	// being refreshed.
	owner actor.Ref
	epoch uint64
	lease int

	draining bool // being emptied for scale-in; admits nothing
}

// srv returns the record of a machine the cluster knows, first growing the
// table when the machine was provisioned since the last period.
func (m *Manager) srv(id cluster.MachineID) *server {
	if int(id) >= len(m.servers) {
		m.grow()
	}
	return m.servers[id]
}

// grow extends the server table to the fleet. Records are allocated one by
// one: closures hold them across growth.
func (m *Manager) grow() {
	for n := len(m.C.Machines()); len(m.servers) < n; {
		m.servers = append(m.servers, &server{})
	}
}

type gem struct {
	id     int
	failed bool

	// last is all a GEM remembers (§4.3: no synchronised state): per server,
	// the last REPORT it evaluated and the one waiting for this period's
	// evaluation. heard counts the servers waiting.
	last  []lastReport
	heard int

	// view flags from the last processed period, for adjustment voting.
	allOver  bool
	allUnder bool
}

// lastReport is one server's row in a GEM's table. A REPORT that arrives in
// period p is parked in (next, heard = p); the evaluation at reportWindow
// promotes next to (info, tick = p). So a REPORT landing after the
// evaluation, or one to a GEM that crashed before it, is heard and never
// remembered, and a row with heard < p and p-tick <= stalePeriods is a stale
// fill.
type lastReport struct {
	info  *epl.ServerInfo // payload of the last evaluated REPORT
	tick  int             // its period
	next  *epl.ServerInfo // payload parked by this period's REPORT
	heard int             // last period a REPORT arrived
}

// New creates an EMR manager for a policy it does not check (core's
// World.Manage is the gate that does). Each call to Tick runs one elasticity
// period.
func New(k *sim.Kernel, c *cluster.Cluster, rt *actor.Runtime, prof *profile.Profiler, pol *epl.Policy, cfg Config) *Manager {
	m := &Manager{
		K: k, C: c, RT: rt, Prof: prof, Pol: pol, Cfg: cfg.withDefaults(),
	}
	// Copy the provisioning spectrum: specs are mutable (warm-pool
	// capacity depletes), and the caller's slice must stay pristine.
	m.provSpecs = append([]cluster.ProvSpec(nil), m.Cfg.ProvSpecs...)
	for i := 0; i < m.Cfg.NumGEMs; i++ {
		m.gems = append(m.gems, &gem{id: i})
	}
	return m
}

// Start and Stop are a shim over Tick for callers that own no period loop
// (the repository benchmark, the quickstart): Start installs the new-actor
// placement hook, opens a fresh EPR window and calls Tick every Cfg.Period
// on K.Every until Stop. Each Start arms its own loop, so a loop that Stop
// ended stays ended across a later Start.
func (m *Manager) Start() {
	if m.loop != nil {
		return
	}
	live := true
	m.loop = &live
	m.RT.SetPlacement(m)
	m.Prof.Reset()
	m.K.Every(m.Cfg.Period, func() bool {
		if live {
			m.Tick()
		}
		return live
	})
}

// Stop ends the Start shim's loop: its pending period lapses.
func (m *Manager) Stop() {
	if m.loop != nil {
		*m.loop, m.loop = false, nil
	}
}

// FailGEM simulates the crash of one global elasticity manager (§4.3 fault
// tolerance): no state synchronization exists between LEMs and GEMs, so
// LEMs simply stop picking the failed GEM at the next period. Returns false
// if the id is out of range.
func (m *Manager) FailGEM(id int) bool {
	if id < 0 || id >= len(m.gems) {
		return false
	}
	m.gems[id].failed = true
	return true
}

// RecoverGEM brings a failed GEM back into the shuffle.
func (m *Manager) RecoverGEM(id int) bool {
	if id < 0 || id >= len(m.gems) {
		return false
	}
	m.gems[id].failed = false
	return true
}

// FailLEM simulates the crash of one server's local elasticity manager:
// the server stops reporting (so it drops out of the global snapshot once
// its last REPORTs age past stalePeriods), answers no admission queries,
// and receives no actions — but its actors keep running; this is a
// control-plane failure, not a machine failure. Returns false if no such
// machine exists.
func (m *Manager) FailLEM(srv cluster.MachineID) bool {
	if m.C.Machine(srv) == nil {
		return false
	}
	m.srv(srv).failed = true
	return true
}

// RecoverLEM re-registers a failed LEM; its server rejoins the global
// snapshot at the next period's REPORT. Returns false if no such machine
// exists or the LEM was not failed.
func (m *Manager) RecoverLEM(srv cluster.MachineID) bool {
	if m.C.Machine(srv) == nil || !m.srv(srv).failed {
		return false
	}
	m.srv(srv).failed = false
	return true
}

// failedLEMCount counts crashed LEMs on machines that are still up — the
// servers whose REPORTs the K-quorum must not wait for.
func (m *Manager) failedLEMCount() int {
	n := 0
	for _, mach := range m.C.Machines() {
		if mach.Up() && m.srv(mach.ID).failed {
			n++
		}
	}
	return n
}

// randomLiveGEM draws one of the GEMs currently accepting reports, with one
// RNG draw among them, or returns nil (drawing nothing) when none is.
func (m *Manager) randomLiveGEM() *gem {
	n := 0
	for _, g := range m.gems {
		if !g.failed {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := m.K.Rand().Intn(n)
	for _, g := range m.gems {
		if !g.failed {
			if k == 0 {
				return g
			}
			k--
		}
	}
	return nil
}

// Tick runs one elasticity period end to end, on the schedule above, and
// returns the EPR window it closed: the snapshot the period plans from.
func (m *Manager) Tick() *epl.Snapshot {
	m.Stats.Ticks++
	tickIdx := m.Stats.Ticks

	if m.tr.Enabled() {
		m.trTick = m.tr.Emit(trace.Record{Kind: trace.KindTick, Tick: int32(tickIdx),
			Server: -1, Target: -1, Rule: -1, Value: float64(m.Cfg.Period),
			Detail: "up=" + strconv.Itoa(m.C.UpCount())})
	}

	// Close the profiling window.
	snap := m.Prof.Snapshot(nil)
	m.Prof.Reset()
	m.cleanupReservations()
	m.finishDraining()

	up := m.C.UpMachines()
	if len(up) == 0 {
		return snap
	}

	// Phase 1 — LEMs: apply interaction rules locally, report to a GEM.
	m.grow()
	for _, g := range m.gems {
		g.heard = 0
		g.last = append(g.last, make([]lastReport, len(m.servers)-len(g.last))...)
	}
	// Pins first so planners see them.
	inter := epl.EvaluateObserved(m.Pol, snap, false, true, m.obs(m.trTick, tickIdx, "lem"))
	// Refresh the pin flags planners read. The snapshot showed every actor's
	// flag an instant ago, and nothing between there and here pins or unpins
	// (Reset and the reservation and drain sweeps), so only the actors just
	// pinned can be out of date.
	// This is the one write the profiler's rows allow: it stores the
	// runtime's own flag, and Pin has marked the row for the next Snapshot.
	for _, pi := range inter.Pin {
		m.RT.Pin(pi.Actor)
		if ai := snap.Actor(pi.Actor); ai != nil {
			ai.Pinned = m.RT.Pinned(pi.Actor)
		}
	}
	// Alg. 1 line 11: each live LEM sends its REPORT (with ack-driven
	// retransmission) to a randomly chosen live GEM — the shuffling that
	// makes GEM failure harmless.
	for _, mach := range up {
		l := m.servers[mach.ID]
		l.gemActions, l.promised, l.acked = nil, [3]float64{}, false
		m.lemReport(mach.ID, snap, tickIdx, 0)
	}

	// Phase 2 — GEMs: at the report-window deadline, apply resource rules
	// over whatever REPORTs arrived (plus bounded-staleness fills).
	m.K.After(reportWindow, func() {
		if m.Stats.Ticks != tickIdx {
			return
		}
		for _, g := range m.gems {
			if g.failed {
				continue
			}
			m.gemProcess(g, snap, tickIdx)
		}
	})
	// Phase 3 — LEMs: plan interaction actions against the GEM actions'
	// destinations, resolve conflicts, query targets, migrate.
	m.K.After(execDelay, func() {
		if m.Stats.Ticks != tickIdx {
			return
		}
		m.resolveAndExecute(snap, inter)
	})
	return snap
}

// cleanupReservations drops reservations whose owner died or moved away,
// and, with Cfg.ReserveTTL set, those whose owner no reserve intent has
// named for more than TTL periods (the owner stays put; only the
// exclusivity ends).
// A reservation is kept while the owner's admitted transfer TO the
// reserved server is still in flight: ServerOf reports the source until
// the migration commits, so "not on srv yet" must not be read as "moved
// away" — that window is exactly when a foreign actor could otherwise be
// admitted onto the dedicated server.
func (m *Manager) cleanupReservations() {
	for id, s := range m.servers {
		srv, owner := cluster.MachineID(id), s.owner
		if owner.Zero() {
			continue
		}
		if !m.RT.Exists(owner) || (m.RT.ServerOf(owner) != srv && m.RT.MigratingTo(owner) != srv) {
			s.dropReservation()
			continue
		}
		if ttl := m.Cfg.ReserveTTL; ttl > 0 && m.Stats.Ticks-s.lease > ttl {
			s.dropReservation()
			m.Stats.ExpiredReservations++
			m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: m.trTick,
				Tick: int32(m.Stats.Ticks), Server: int32(srv), Target: -1,
				Actor: uint64(owner.ID), Rule: -1, Detail: "reserve-expired"})
		}
	}
}

// dropReservation forgets the server's dedication and its lease.
func (s *server) dropReservation() { s.owner, s.lease = actor.Ref{}, 0 }

// shared reports whether the server is in the shared pool: neither dedicated
// nor being drained, so planners may place onto it.
func (s *server) shared() bool { return s.owner.Zero() && !s.draining }

// finishDraining decommissions drained servers once they are empty.
func (m *Manager) finishDraining() {
	for id, s := range m.servers {
		if s.draining && m.RT.NumActorsOn(cluster.MachineID(id)) == 0 {
			if m.C.Decommission(cluster.MachineID(id)) == nil {
				m.Stats.ScaleIns++
			}
			s.draining = false
		}
	}
}

// standsIn reports whether the last REPORT a GEM evaluated from a server it
// has not heard from this period fills the gap: a GEM nobody reported to has
// no view to fill; the REPORT must be at most stalePeriods old, the machine
// up and its LEM alive.
func (m *Manager) standsIn(g *gem, id cluster.MachineID, tickIdx int) bool {
	e := &g.last[id]
	return g.heard > 0 && e.info != nil && tickIdx-e.tick <= stalePeriods &&
		!m.servers[id].failed && m.C.Machine(id).Up()
}

// inScope reports whether the GEM's view this period covers the server:
// heard from, or stood in for.
func (m *Manager) inScope(g *gem, id cluster.MachineID, tickIdx int) bool {
	return g.last[id].heard == tickIdx || m.standsIn(g, id, tickIdx)
}

// gemProcess is Alg. 2 at the report-window deadline: build the global
// snapshot over the servers whose REPORTs arrived — filling gaps with
// bounded-staleness last REPORTs, so a lossy control plane degrades the
// view instead of stalling it — apply resource rules, distribute actions
// as RREPLY messages, and drive scale adjustment. The K-quorum discounts
// crashed LEMs: their REPORTs are not coming.
func (m *Manager) gemProcess(g *gem, snap *epl.Snapshot, tickIdx int) {
	// One walk in id order: what arrived becomes the server's last REPORT,
	// what did not may be stood in for. The GEM's view is built from REPORT
	// payloads, not from the profiler directly: what the GEM plans on is
	// exactly what the network delivered.
	scoped := 0
	servers := make([]*epl.ServerInfo, 0, len(g.last))
	for i := range g.last {
		e, id := &g.last[i], cluster.MachineID(i)
		if e.heard == tickIdx {
			e.info, e.tick = e.next, tickIdx
		} else if m.standsIn(g, id, tickIdx) {
			m.Stats.StaleReportsUsed++
			m.tr.Emit(trace.Record{Kind: trace.KindStaleReport, Parent: m.trTick,
				Tick: int32(tickIdx), Server: int32(id), Target: -1, Rule: -1, Value: float64(e.tick)})
		} else {
			continue
		}
		scoped++
		servers = append(servers, e.info)
	}

	effK := m.Cfg.K - m.failedLEMCount()
	if effK < 0 {
		effK = 0
	}
	gemEvalID := uint64(0)
	if m.tr.Enabled() {
		det := chaos.GEM(g.id).String() + " reports=" + strconv.Itoa(g.heard) +
			" combined=" + strconv.Itoa(scoped) + " quorum=" + strconv.Itoa(effK)
		if scoped <= effK {
			det += " skipped"
		}
		gemEvalID = m.tr.Emit(trace.Record{Kind: trace.KindGemEval, Parent: m.trTick,
			Tick: int32(tickIdx), Server: -1, Target: -1, Rule: -1,
			Value: float64(scoped), Detail: det})
	}
	if scoped <= effK {
		return
	}
	gemView := snap.WithServers(servers)

	res := epl.EvaluateObserved(m.Pol, gemView, true, false, m.obs(gemEvalID, tickIdx, chaos.GEM(g.id).String()))
	if len(res.ProvClass) > 0 {
		// Refresh the scale-out class preference from the provclass rules
		// that fired this period (rule order = preference order).
		m.provPref = m.provPref[:0]
		for _, pi := range res.ProvClass {
			for _, name := range pi.Classes {
				if pc, ok := cluster.ProvClassFromString(name); ok {
					m.provPref = append(m.provPref, pc)
				}
			}
		}
	}
	actions, allOver, allUnder, outNeed, wantIn := m.planResource(g.last, gemView, res, gemEvalID, tickIdx)
	g.allOver = allOver
	g.allUnder = allUnder
	m.Stats.PlannedActions += len(actions)
	m.tracePropose(actions, gemEvalID, tickIdx)
	m.rreplyActions(g, tickIdx, actions)
	if outNeed > 0 && m.Cfg.ScaleOut {
		m.tryScaleOut(g, outNeed, gemEvalID)
	}
	if wantIn && m.Cfg.ScaleIn && len(actions) == 0 {
		m.tryScaleIn(g, gemView, gemEvalID)
	}
}

// resolveAndExecute is Alg. 1 lines 13-22: plan interaction actions with
// knowledge of the GEM actions' destinations (so colocation partners follow
// reserved/balanced actors in the same period), resolve per-actor conflicts
// by priority, admission-check targets, then migrate.
func (m *Manager) resolveAndExecute(snap *epl.Snapshot, inter *epl.Intents) {
	var all []Action
	for _, l := range m.servers {
		if !l.failed {
			all = append(all, l.gemActions...)
		}
	}
	interActions := m.planInteraction(snap, inter, all)
	m.Stats.PlannedActions += len(interActions)
	m.tracePropose(interActions, m.trTick, m.Stats.Ticks)
	all = append(all, interActions...)

	final := m.resolveActions(all)
	// Process queries in priority order so reservations admit partners.
	sort.SliceStable(final, func(i, j int) bool { return final[i].Pri > final[j].Pri })

	pinPri := priority(epl.KindPin)
	for _, a := range final {
		a := a
		if m.RT.ServerOf(a.Actor) != a.Src {
			m.traceDrop(a, "stale-src")
			continue // stale: the actor moved since planning
		}
		if m.srv(a.Src).failed {
			m.traceDrop(a, "lem-crashed")
			continue // the initiating LEM crashed after planning
		}
		repin := false
		if m.RT.Pinned(a.Actor) {
			if a.Pri <= pinPri {
				m.traceDrop(a, "pinned")
				continue
			}
			// An action outranking pin (reserve by default) may move a
			// pinned actor; the pin is restored at its new home.
			repin = true
		}
		// Queries are sent here in priority order and arrive in that same
		// order one hop later, so reservations register before their
		// colocation partners are admission-checked.
		m.queryAdmission(a, snap, repin)
	}
}

// resolveActions keeps, per actor, the highest-priority action. Colocate
// actions additionally retarget to follow a partner that is itself being
// migrated this period.
func (m *Manager) resolveActions(all []Action) []Action {
	if len(all) == 0 {
		return nil
	}
	dest := map[actor.Ref]cluster.MachineID{}
	for _, a := range all {
		dest[a.Actor] = a.Trg
	}
	best := map[actor.Ref]Action{}
	order := []actor.Ref{}
	for _, a := range all {
		if a.Kind == epl.KindColocate && !a.Partner.Zero() {
			if d, ok := dest[a.Partner]; ok {
				a.Trg = d
			}
		}
		if a.Trg == a.Src {
			continue
		}
		cur, ok := best[a.Actor]
		if !ok {
			best[a.Actor] = a
			order = append(order, a.Actor)
			continue
		}
		m.Stats.ResolvedConflicts++
		loser := a
		if a.Pri > cur.Pri {
			loser = cur
			best[a.Actor] = a
		}
		m.traceDrop(loser, "conflict")
	}
	out := make([]Action, 0, len(order))
	for _, ref := range order {
		out = append(out, best[ref])
	}
	return out
}

// traceDrop records an action lost before admission (conflict resolution,
// stale source, crashed LEM, pin), parented to its propose record.
func (m *Manager) traceDrop(a Action, reason string) {
	m.tr.Emit(trace.Record{Kind: trace.KindResolveDrop, Parent: a.traceID,
		Tick: int32(m.Stats.Ticks), Server: int32(a.Src), Target: int32(a.Trg),
		Actor: uint64(a.Actor.ID), Rule: -1, Value: float64(a.Pri), Detail: reason})
}

// checkIdleRes decides whether the target server can accept the actor
// (Table 2a): reserved servers admit only their owner and its colocation
// partners; draining and down servers admit nothing; otherwise the target's
// projected utilization must stay under the admission bound. The second
// return is the denial reason ("" when admitted), recorded in the trace.
func (m *Manager) checkIdleRes(a Action, snap *epl.Snapshot) (bool, string) {
	mach := m.C.Machine(a.Trg)
	if mach == nil || !mach.Up() {
		return false, "target-down"
	}
	l := m.srv(a.Trg)
	if l.draining {
		return false, "draining"
	}
	if owner := l.owner; !owner.Zero() {
		if a.Actor != owner && a.Partner != owner {
			return false, "reserved"
		}
		// The owner and its colocation partners are the dedicated server's
		// entitled workload: no load check (the reserve planner already
		// chose an idle server for them).
		return true, ""
	}
	ai := snap.Actor(a.Actor)
	ti := snap.Server(a.Trg)
	if ai == nil {
		return false, "unknown-actor"
	}
	res := a.Res
	load := shareOn(ai, m.capacity(ai.Server), m.capacity(a.Trg))[res]
	projected := l.promised[res]
	if ti != nil {
		projected += ti.Res(res)
	}
	if projected+load > epl.DefaultUpper {
		return false, "over-bound"
	}
	l.promised[res] += load
	return true, ""
}

// capacity is a machine's (cpu, mem, net) capacity in speed-weighted cores,
// bytes and Mbps; zero for a machine the cluster does not know.
func (m *Manager) capacity(id cluster.MachineID) (c [3]float64) {
	if mach := m.C.Machine(id); mach != nil {
		t := mach.Type
		c = [3]float64{float64(t.VCPUs) * t.SpeedFac, float64(t.MemMB * 1024 * 1024), t.NetMbps}
	}
	return c
}

// shareOn estimates the (cpu, mem, net) utilization share (0-100) the actor
// would add on a machine of capacity dst, rescaling the usage it measured
// on a machine of capacity src. An axis whose capacity is unknown keeps the
// measured share.
func shareOn(ai *epl.ActorInfo, src, dst [3]float64) [3]float64 {
	v := ai.ResVec()
	if src[epl.CPU] != 0 && dst[epl.CPU] != 0 {
		v[epl.CPU] = ai.CPUPerc * src[epl.CPU] / dst[epl.CPU]
	}
	if dst[epl.Mem] != 0 {
		v[epl.Mem] = float64(ai.MemBytes) / dst[epl.Mem] * 100
	}
	if src[epl.Net] != 0 && dst[epl.Net] != 0 {
		v[epl.Net] = ai.NetPerc * src[epl.Net] / dst[epl.Net]
	}
	return v
}

// movable reports whether the actor may be migrated now (not pinned, has
// satisfied the minimum-residence stability requirement, §4.3).
func (m *Manager) movable(ai *epl.ActorInfo) bool {
	if ai.Pinned {
		return false
	}
	return m.rested(ai)
}

// movableAt is movable for a specific action priority: actions outranking
// pin may move pinned actors.
func (m *Manager) movableAt(ai *epl.ActorInfo, pri int) bool {
	if ai.Pinned && pri <= priority(epl.KindPin) {
		return false
	}
	return m.rested(ai)
}

// rested reports whether the minimum-residence stability requirement
// (§4.3) has elapsed since the actor's last move.
func (m *Manager) rested(ai *epl.ActorInfo) bool {
	return sim.Duration(m.K.Now()-ai.LastMoved) >= m.Cfg.MinResidence
}
