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
	"plasma/internal/lint"
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
	// GEMLatency models one LEM<->GEM message hop.
	GEMLatency sim.Duration
	// ReportTimeout is how long a LEM waits for the GEM's REPORT ack before
	// retransmitting; the wait doubles per attempt, capped at 4x. Default
	// 4*GEMLatency.
	ReportTimeout sim.Duration
	// ReportRetries caps REPORT retransmissions per period (default 2, so
	// up to three sends).
	ReportRetries int
	// ReportWindow is how long after the period starts a GEM waits before
	// evaluating with whatever REPORTs arrived (partial snapshots instead
	// of stalling). Default 4*ReportTimeout.
	ReportWindow sim.Duration
	// ExecDelay is when LEMs resolve and execute the period's actions;
	// RREPLYs arriving later are lost for the period. Default
	// ReportWindow + 4*GEMLatency.
	ExecDelay sim.Duration
	// QueryTimeout is how long a source LEM waits for an admission QREPLY
	// before treating the migration as denied. Default 4*GEMLatency.
	QueryTimeout sim.Duration
	// StalePeriods bounds how many periods old a cached REPORT may be and
	// still stand in for a lost one in the GEM's snapshot. Default 2.
	StalePeriods int
	// ScaleOut/ScaleIn enable dynamic resource allocation.
	ScaleOut bool
	ScaleIn  bool
	// MinServers bounds scale-in; InstanceType is what scale-out provisions.
	MinServers   int
	InstanceType cluster.InstanceType
	// ProvSpecs, when non-empty, is the provisioning spectrum scale-out
	// draws from (warm pool, container, VM, ...). Classes are tried in
	// policy-preference order (a `provclass` rule), then spec order,
	// falling to the next class when a pool is exhausted. Empty keeps the
	// legacy single-constant-boot provisioner.
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
	// DefaultUpper is the admission bound used when a rule states no upper
	// threshold.
	DefaultUpper float64
	// Priorities orders conflicting actions; higher wins. Zero value uses
	// the defaults (reserve > pin > balance > colocate > separate: reserve
	// is the most specific placement demand, pin blocks everything below
	// it, and balance outranks colocate as in the paper's §4.3 example).
	Priorities map[epl.BehaviorKind]int
}

func (c Config) priority(k epl.BehaviorKind) int {
	if c.Priorities != nil {
		if p, ok := c.Priorities[k]; ok {
			return p
		}
	}
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
	if c.GEMLatency == 0 {
		c.GEMLatency = sim.Millis(1)
	}
	if c.ReportTimeout == 0 {
		c.ReportTimeout = 4 * c.GEMLatency
	}
	if c.ReportRetries == 0 {
		c.ReportRetries = 2
	}
	if c.ReportWindow == 0 {
		c.ReportWindow = 4 * c.ReportTimeout
	}
	if c.ExecDelay == 0 {
		c.ExecDelay = c.ReportWindow + 4*c.GEMLatency
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 4 * c.GEMLatency
	}
	if c.StalePeriods == 0 {
		c.StalePeriods = 2
	}
	if c.MinServers <= 0 {
		c.MinServers = 1
	}
	if c.DefaultUpper == 0 {
		c.DefaultUpper = 85
	}
	return c
}

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
	StaleReportsUsed int // cache entries standing in for lost REPORTs
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
// actor runtime. Create with New, then Start.
type Manager struct {
	K    *sim.Kernel
	C    *cluster.Cluster
	RT   *actor.Runtime
	Prof *profile.Profiler
	Pol  *epl.Policy
	Cfg  Config

	gems     []*gem
	lems     map[cluster.MachineID]*lem
	reserved map[cluster.MachineID]actor.Ref // dedicated server -> owner
	// resEpoch counts (re)grants per reserved server, so a stale
	// release-on-timeout closure from an earlier grant cannot revoke a
	// newer legitimate reservation of the same server.
	resEpoch map[cluster.MachineID]uint64
	// resLease records, per reserved server, the last tick a reserve intent
	// named the reservation's owner (grants count); with Cfg.ReserveTTL set,
	// cleanupReservations expires leases this stopped refreshing.
	resLease map[cluster.MachineID]int
	draining map[cluster.MachineID]bool

	// OnTick, when set, observes each period's global snapshot before
	// planning (used by experiments to trace CPU% and actor distributions).
	OnTick func(tick int, snap *epl.Snapshot)
	// OnActions, when set, observes the final resolved action list each
	// period before admission checks.
	OnActions func(final []Action)

	// PolicyDiagnostics holds the static-analysis findings for Pol,
	// computed once at construction. New panics if any finding has error
	// severity (an unsatisfiable policy would silently never fire).
	PolicyDiagnostics []lint.Diagnostic

	Stats   Stats
	running bool
	timer   *sim.Timer // reusable tick timer; re-armed each period
	booting int        // provisioned machines not yet up (scale-out cooldown)

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

type lem struct {
	srv cluster.MachineID

	gemActions []Action // actions received via RREPLY this period

	// admission ledger: extra resource share already promised to inbound
	// actors this period, per resource.
	promised [3]float64

	failed bool // crashed LEM: no reports, no queries answered, no actions
	acked  bool // this period's REPORT was acknowledged (stops retransmits)
}

type gem struct {
	id      int
	reports []report
	got     map[cluster.MachineID]bool // REPORT dedup for this period
	failed  bool

	// cache holds each server's last REPORT for bounded-staleness reuse
	// when a period's REPORT is lost.
	cache map[cluster.MachineID]cachedReport

	// view flags from the last processed period, for adjustment voting.
	allOver  bool
	allUnder bool
}

type cachedReport struct {
	info *epl.ServerInfo
	tick int
}

type report struct {
	srv  cluster.MachineID
	info *epl.ServerInfo
}

// New creates an EMR manager. Call Start to begin elasticity management.
func New(k *sim.Kernel, c *cluster.Cluster, rt *actor.Runtime, prof *profile.Profiler, pol *epl.Policy, cfg Config) *Manager {
	m := &Manager{
		K: k, C: c, RT: rt, Prof: prof, Pol: pol, Cfg: cfg.withDefaults(),
		lems:     make(map[cluster.MachineID]*lem),
		reserved: make(map[cluster.MachineID]actor.Ref),
		resEpoch: make(map[cluster.MachineID]uint64),
		resLease: make(map[cluster.MachineID]int),
		draining: make(map[cluster.MachineID]bool),
	}
	// Copy the provisioning spectrum: specs are mutable (warm-pool
	// capacity depletes), and the caller's slice must stay pristine.
	if len(m.Cfg.ProvSpecs) > 0 {
		m.provSpecs = append([]cluster.ProvSpec(nil), m.Cfg.ProvSpecs...)
	}
	if pol != nil {
		m.PolicyDiagnostics = lint.AnalyzePolicy(pol, nil)
		for _, d := range m.PolicyDiagnostics {
			if d.Severity >= lint.Error {
				panic("emr: policy rejected by static analysis: " + d.String())
			}
		}
	}
	for i := 0; i < m.Cfg.NumGEMs; i++ {
		m.gems = append(m.gems, &gem{
			id:    i,
			got:   make(map[cluster.MachineID]bool),
			cache: make(map[cluster.MachineID]cachedReport),
		})
	}
	return m
}

// Start installs the new-actor placement hook and schedules periodic
// elasticity management on a reusable kernel timer: each period re-arms
// the same slot (sim.Timer.Reset), so the tick loop costs one queue push
// and zero allocations per period.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	m.RT.SetPlacement(m)
	m.Prof.Reset()
	m.timer = m.K.AfterFunc(m.Cfg.Period, m.tickLoop)
}

// tickLoop runs one elasticity period and re-arms the timer. After Stop,
// the pending fire lapses without rescheduling (releasing the timer slot),
// matching the lazy shutdown of the previous Every-based loop.
func (m *Manager) tickLoop() {
	if !m.running {
		return
	}
	m.tick()
	m.timer.Reset(m.Cfg.Period)
}

// Stop halts elasticity management after the current period.
func (m *Manager) Stop() { m.running = false }

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
// its cached REPORTs age past StalePeriods), answers no admission queries,
// and receives no actions — but its actors keep running; this is a
// control-plane failure, not a machine failure. Returns false if no such
// machine exists.
func (m *Manager) FailLEM(srv cluster.MachineID) bool {
	if m.C.Machine(srv) == nil {
		return false
	}
	m.lemFor(srv).failed = true
	return true
}

// RecoverLEM re-registers a failed LEM; its server rejoins the global
// snapshot at the next period's REPORT. Returns false if no such machine
// exists or the LEM was not failed.
func (m *Manager) RecoverLEM(srv cluster.MachineID) bool {
	if m.C.Machine(srv) == nil || !m.lemFor(srv).failed {
		return false
	}
	m.lemFor(srv).failed = false
	return true
}

// failedLEMCount counts crashed LEMs on machines that are still up — the
// servers whose REPORTs the K-quorum must not wait for.
func (m *Manager) failedLEMCount() int {
	n := 0
	for _, mach := range m.C.UpMachines() {
		if l := m.lems[mach.ID]; l != nil && l.failed {
			n++
		}
	}
	return n
}

// aliveGEMs lists the GEMs currently accepting reports.
func (m *Manager) aliveGEMs() []*gem {
	var out []*gem
	for _, g := range m.gems {
		if !g.failed {
			out = append(out, g)
		}
	}
	return out
}

// lemFor returns (creating if needed) the LEM for a server.
func (m *Manager) lemFor(srv cluster.MachineID) *lem {
	l := m.lems[srv]
	if l == nil {
		l = &lem{srv: srv}
		m.lems[srv] = l
	}
	return l
}

// tick runs one elasticity period end to end (phases spaced by GEMLatency).
func (m *Manager) tick() {
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

	if m.OnTick != nil {
		m.OnTick(tickIdx, snap)
	}

	up := m.C.UpMachines()
	if len(up) == 0 {
		return
	}

	// Phase 1 — LEMs: apply interaction rules locally, report to a GEM.
	for _, g := range m.gems {
		g.reports = nil
		g.got = make(map[cluster.MachineID]bool)
	}
	for _, mach := range up {
		l := m.lemFor(mach.ID)
		l.gemActions = nil
		l.promised = [3]float64{}
		l.acked = false
	}
	// Pins first so planners see them.
	inter := epl.EvaluateObserved(m.Pol, snap, false, true, m.obs(m.trTick, tickIdx, "lem"))
	for _, pi := range inter.Pin {
		m.RT.Pin(pi.Actor)
	}
	// Refresh pin flags in the snapshot for planners.
	for _, ai := range snap.Actors {
		ai.Pinned = m.RT.Pinned(ai.Ref)
	}
	// Alg. 1 line 11: each live LEM sends its REPORT (with ack-driven
	// retransmission) to a randomly chosen live GEM — the shuffling that
	// makes GEM failure harmless.
	for _, mach := range up {
		m.lemReport(m.lemFor(mach.ID), snap, tickIdx, 0)
	}

	// Phase 2 — GEMs: at the report-window deadline, apply resource rules
	// over whatever REPORTs arrived (plus bounded-staleness cache fills).
	m.K.After(m.Cfg.ReportWindow, func() {
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
	m.K.After(m.Cfg.ExecDelay, func() {
		if m.Stats.Ticks != tickIdx {
			return
		}
		m.resolveAndExecute(snap, inter)
	})
}

// cleanupReservations drops reservations whose owner died or moved away.
// A reservation is kept while the owner's admitted transfer TO the
// reserved server is still in flight: ServerOf reports the source until
// the migration commits, so "not on srv yet" must not be read as "moved
// away" — that window is exactly when a foreign actor could otherwise be
// admitted onto the dedicated server.
func (m *Manager) cleanupReservations() {
	for srv, owner := range m.reserved {
		if !m.RT.Exists(owner) {
			m.dropReservation(srv)
			continue
		}
		if m.RT.ServerOf(owner) == srv || m.RT.MigratingTo(owner) == srv {
			continue // settled on, or still being transferred to, srv
		}
		m.dropReservation(srv)
	}
	m.expireReservations()
}

// dropReservation forgets a server's dedication and its lease bookkeeping.
func (m *Manager) dropReservation(srv cluster.MachineID) {
	delete(m.reserved, srv)
	delete(m.resLease, srv)
}

// expireReservations is the ReserveTTL lease check: a reservation whose
// owner no reserve intent has named for more than TTL periods goes back to
// the shared pool (the owner stays put; only the exclusivity ends). Sorted
// iteration keeps trace emission order deterministic.
func (m *Manager) expireReservations() {
	ttl := m.Cfg.ReserveTTL
	if ttl <= 0 || len(m.reserved) == 0 {
		return
	}
	srvs := make([]cluster.MachineID, 0, len(m.reserved))
	for srv := range m.reserved {
		srvs = append(srvs, srv)
	}
	sort.Slice(srvs, func(i, j int) bool { return srvs[i] < srvs[j] })
	for _, srv := range srvs {
		if m.Stats.Ticks-m.resLease[srv] <= ttl {
			continue
		}
		owner := m.reserved[srv]
		m.dropReservation(srv)
		m.Stats.ExpiredReservations++
		m.tr.Emit(trace.Record{Kind: trace.KindDeny, Parent: m.trTick,
			Tick: int32(m.Stats.Ticks), Server: int32(srv), Target: -1,
			Actor: uint64(owner.ID), Rule: -1, Detail: "reserve-expired"})
	}
}

// finishDraining decommissions drained servers once they are empty.
func (m *Manager) finishDraining() {
	ids := make([]cluster.MachineID, 0, len(m.draining))
	for id := range m.draining {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if m.RT.NumActorsOn(id) == 0 {
			if m.C.Decommission(id) == nil {
				m.Stats.ScaleIns++
			}
			delete(m.draining, id)
		}
	}
}

// gemProcess is Alg. 2 at the report-window deadline: build the global
// snapshot over the servers whose REPORTs arrived — filling gaps with
// bounded-staleness cache entries, so a lossy control plane degrades the
// view instead of stalling it — apply resource rules, distribute actions
// as RREPLY messages, and drive scale adjustment. The K-quorum discounts
// crashed LEMs: their REPORTs are not coming.
func (m *Manager) gemProcess(g *gem, snap *epl.Snapshot, tickIdx int) {
	// Refresh the cache from this period's arrivals.
	for _, r := range g.reports {
		if r.info != nil {
			g.cache[r.srv] = cachedReport{info: r.info, tick: tickIdx}
		}
	}
	combined := append([]report(nil), g.reports...)
	if len(g.reports) > 0 {
		// Stand in for lost REPORTs with cached ones that are fresh enough,
		// from machines still up whose LEMs still live.
		srvs := make([]cluster.MachineID, 0, len(g.cache))
		for srv := range g.cache {
			srvs = append(srvs, srv)
		}
		sort.Slice(srvs, func(i, j int) bool { return srvs[i] < srvs[j] })
		for _, srv := range srvs {
			c := g.cache[srv]
			if tickIdx-c.tick > m.Cfg.StalePeriods {
				delete(g.cache, srv)
				continue
			}
			if g.got[srv] || m.lemFor(srv).failed {
				continue
			}
			if mach := m.C.Machine(srv); mach == nil || !mach.Up() {
				continue
			}
			m.Stats.StaleReportsUsed++
			m.tr.Emit(trace.Record{Kind: trace.KindStaleReport, Parent: m.trTick,
				Tick: int32(tickIdx), Server: int32(srv), Target: -1, Rule: -1, Value: float64(c.tick)})
			combined = append(combined, report{srv: srv, info: c.info})
		}
	}

	effK := m.Cfg.K - m.failedLEMCount()
	if effK < 0 {
		effK = 0
	}
	gemEvalID := uint64(0)
	if m.tr.Enabled() {
		det := gemName(g.id) + " reports=" + strconv.Itoa(len(g.reports)) +
			" combined=" + strconv.Itoa(len(combined)) + " quorum=" + strconv.Itoa(effK)
		if len(combined) <= effK {
			det += " skipped"
		}
		gemEvalID = m.tr.Emit(trace.Record{Kind: trace.KindGemEval, Parent: m.trTick,
			Tick: int32(tickIdx), Server: -1, Target: -1, Rule: -1,
			Value: float64(len(combined)), Detail: det})
	}
	if len(combined) <= effK {
		return
	}
	scope := make([]cluster.MachineID, 0, len(combined))
	for _, r := range combined {
		scope = append(scope, r.srv)
	}
	sort.Slice(scope, func(i, j int) bool { return scope[i] < scope[j] })

	// The GEM's view is built from REPORT payloads (fresh or cached), not
	// from the profiler directly: what the GEM plans on is exactly what the
	// network delivered.
	servers := make([]*epl.ServerInfo, 0, len(scope))
	for _, srv := range scope {
		if c, ok := g.cache[srv]; ok && c.info != nil {
			servers = append(servers, c.info)
		}
	}
	gemView := snap.WithServers(servers)

	var obs epl.EvalObserver
	if m.tr.Enabled() {
		obs = &evalObs{m: m, parent: gemEvalID, tick: int32(tickIdx), ctx: gemName(g.id)}
	}
	res := epl.EvaluateObserved(m.Pol, gemView, true, false, obs)
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
	actions, allOver, allUnder, outNeed, wantIn := m.planResource(scope, g.got, gemView, res, gemEvalID, tickIdx)
	g.allOver = allOver
	g.allUnder = allUnder
	m.Stats.PlannedActions += len(actions)
	m.tracePropose(actions, gemEvalID, tickIdx)
	m.rreplyActions(g, tickIdx, actions)
	if outNeed > 0 && m.Cfg.ScaleOut {
		m.tryScaleOut(g, outNeed, gemEvalID)
	}
	if wantIn && m.Cfg.ScaleIn && len(actions) == 0 {
		m.tryScaleIn(g, scope, gemView, gemEvalID)
	}
}

// resolveAndExecute is Alg. 1 lines 13-22: plan interaction actions with
// knowledge of the GEM actions' destinations (so colocation partners follow
// reserved/balanced actors in the same period), resolve per-actor conflicts
// by priority, admission-check targets, then migrate.
func (m *Manager) resolveAndExecute(snap *epl.Snapshot, inter *epl.Intents) {
	srvs := make([]cluster.MachineID, 0, len(m.lems))
	for id := range m.lems {
		srvs = append(srvs, id)
	}
	sort.Slice(srvs, func(i, j int) bool { return srvs[i] < srvs[j] })

	var all []Action
	for _, srv := range srvs {
		if m.lems[srv].failed {
			continue
		}
		all = append(all, m.lems[srv].gemActions...)
	}
	interActions := m.planInteraction(snap, inter, all)
	m.Stats.PlannedActions += len(interActions)
	m.tracePropose(interActions, m.trTick, m.Stats.Ticks)
	all = append(all, interActions...)

	final := m.resolveActions(all)
	// Process queries in priority order so reservations admit partners.
	sort.SliceStable(final, func(i, j int) bool { return final[i].Pri > final[j].Pri })
	if m.OnActions != nil {
		m.OnActions(final)
	}

	pinPri := m.Cfg.priority(epl.KindPin)
	for _, a := range final {
		a := a
		if m.RT.ServerOf(a.Actor) != a.Src {
			m.traceDrop(a, "stale-src")
			continue // stale: the actor moved since planning
		}
		if m.lemFor(a.Src).failed {
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
	if m.draining[a.Trg] {
		return false, "draining"
	}
	if owner, ok := m.reserved[a.Trg]; ok {
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
	l := m.lemFor(a.Trg)
	res := a.Res
	load := shareOn(ai, m.capacity(ai.Server), m.capacity(a.Trg))[res]
	projected := l.promised[res]
	if ti != nil {
		projected += ti.Res(res)
	}
	if projected+load > m.admissionBound(res) {
		return false, "over-bound"
	}
	l.promised[res] += load
	return true, ""
}

// admissionBound is the utilization ceiling for accepting migrations.
func (m *Manager) admissionBound(res epl.Resource) float64 {
	return m.Cfg.DefaultUpper
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
	if ai.Pinned && pri <= m.Cfg.priority(epl.KindPin) {
		return false
	}
	return m.rested(ai)
}

// rested reports whether the minimum-residence stability requirement
// (§4.3) has elapsed since the actor's last move.
func (m *Manager) rested(ai *epl.ActorInfo) bool {
	return sim.Duration(m.K.Now()-ai.LastMoved) >= m.Cfg.MinResidence
}
