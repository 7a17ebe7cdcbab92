// Package trace is PLASMA's elasticity decision-trace layer: a structured,
// deterministic event log of every decision the EER takes — rule
// evaluations (with the profiled values that fed them), the migration
// lifecycle (propose → admit/deny → transfer → commit/rollback),
// provisioning, and chaos injections — so a run's behavior can be
// reconstructed, filtered, diffed, and visualized instead of printf'd.
//
// Records carry virtual time, the servers and actor involved, the rule
// index, and a causal parent id; spans nest (tick → rule eval → action →
// admission → migration), so one elasticity period is a reconstructable
// tree. Because every record is emitted at a deterministic point of the
// simulation and ids come from a plain counter, two runs at the same seed
// produce byte-identical JSONL traces — which is what lets plasma-trace
// diff localize determinism drift to the first divergent decision.
//
// Tracing is off by default: components hold a nil *Tracer and every Emit
// on it is a nil-check returning immediately, so the disabled hot path
// costs nothing and allocates nothing (the perf gate in make bench-quick
// runs untraced).
package trace

import (
	"fmt"

	"plasma/internal/sim"
)

// Kind types a trace record.
type Kind uint8

const (
	// KindTick opens one elasticity period (a span: Value holds the period
	// length in µs, so exporters can render the tick as a duration).
	KindTick Kind = iota
	// KindRuleEval summarizes one rule's evaluation in a context: Value is
	// the number of bindings (or servers) that fired.
	KindRuleEval
	// KindRuleFire is one firing binding of a rule: Actor is the anchor
	// (zero for server-scoped rules), Server the context server, Detail the
	// profiled comparison values that fed the condition.
	KindRuleFire
	// KindReport is a LEM's REPORT send (Detail names the chosen GEM and
	// the attempt number; retransmissions have attempt > 0).
	KindReport
	// KindReportAck is the GEM ack (RREPLY) landing back at the LEM.
	KindReportAck
	// KindStaleReport is a GEM filling a lost REPORT from its
	// bounded-staleness cache (Value is the cached tick).
	KindStaleReport
	// KindGemEval is a GEM evaluating at the report-window deadline
	// (Detail carries gem id, report/stale counts, and the effective
	// quorum; a below-quorum skip is recorded too).
	KindGemEval
	// KindPropose is one planned migration action (Actor, Server=src,
	// Target=trg; Detail carries the behavior kind and priority).
	KindPropose
	// KindResolveDrop is an action lost to conflict resolution or skipped
	// before admission (stale source, crashed LEM, pinned actor).
	KindResolveDrop
	// KindQuery is the admission QUERY leaving the source LEM.
	KindQuery
	// KindAdmit is a granted admission (QREPLY true).
	KindAdmit
	// KindDeny is a denied admission; Detail is the reason (target-down,
	// draining, reserved, over-bound, timeout).
	KindDeny
	// KindTransfer is a live migration starting its state transfer
	// (Value is the actor's state size in bytes).
	KindTransfer
	// KindCommit is a migration committing on its destination.
	KindCommit
	// KindRollback is a migration aborted or rolled back; Detail is the
	// reason (dst-crash, src-crash, actor-stopped, …).
	KindRollback
	// KindScaleOut is a GEM's corroborated scale-out decision (Value is
	// the provisioning demand in servers).
	KindScaleOut
	// KindScaleIn is a GEM's corroborated scale-in decision: the victim
	// server (Target) begins draining.
	KindScaleIn
	// KindProvision is the cluster booting a new machine (Target).
	KindProvision
	// KindMachineUp is a provisioned machine finishing its boot delay.
	KindMachineUp
	// KindDecommission is a machine leaving service permanently.
	KindDecommission
	// KindCrash is a machine failure.
	KindCrash
	// KindRepair is a failed machine returning to service.
	KindRepair
	// KindChaos is a chaos-layer injection: a message fault verdict or a
	// scheduled control-plane fault (Detail carries the injector's line).
	KindChaos
	// KindProvFail is a provisioning attempt failing before the machine
	// reaches Up (Detail names the provisioning class, Value the attempt).
	KindProvFail
	// KindProvRetry is a failed provision being rescheduled with capped
	// exponential backoff (Value is the backoff delay in µs).
	KindProvRetry
	// KindShed is an overloaded actor rejecting a delivery because its
	// bounded mailbox is full (Value is the mailbox capacity).
	KindShed
	// KindHandoff is an executor-level key-range handoff in the Elasticutor
	// baseline (Server=src server, Target=dst server, Actor=src executor,
	// Value=state bytes moved, Detail=key count) — the baseline's analogue
	// of a transfer/commit pair.
	KindHandoff
	// KindPlanBatch summarizes one GEM planning round: Value is the number
	// of planned actions, Detail carries the reservations and moves, how
	// many distinct destinations they batch onto, and how many servers the
	// round leaves over/under the rules' bands.
	KindPlanBatch
	numKinds
)

var kindNames = [numKinds]string{
	"tick", "rule-eval", "rule-fire", "report", "report-ack",
	"stale-report", "gem-eval", "propose", "resolve-drop", "query",
	"admit", "deny", "transfer", "commit", "rollback", "scale-out",
	"scale-in", "provision", "machine-up", "decommission", "crash",
	"repair", "chaos", "prov-fail", "prov-retry", "shed", "handoff",
	"plan-batch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString parses a Kind name as written by Kind.String.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Kinds lists every kind in declaration order (for summaries).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Record is one trace event. The zero value of the identity fields means
// "not applicable": Server/Target/Rule use -1 for none, Actor 0, Parent 0
// (a root record).
type Record struct {
	// ID is the record's position in the emission order (1-based); Parent
	// is the causally-enclosing record's ID (0 for roots). Together they
	// form the span tree: tick → rule eval → propose → query → transfer.
	ID     uint64
	Parent uint64
	// At is the virtual time the record was emitted.
	At   sim.Time
	Kind Kind
	// Tick is the elasticity period index (1-based; 0 when outside one).
	Tick int32
	// Server and Target are machine ids (-1 when not applicable); for a
	// migration, Server is the source and Target the destination.
	Server int32
	Target int32
	// Actor is the subject actor's id (0 when not applicable).
	Actor uint64
	// Rule is the policy rule index (-1 when not applicable).
	Rule int32
	// Value carries the record's scalar payload (period µs for ticks,
	// fired-binding counts for rule evals, state bytes for transfers, …).
	Value float64
	// Detail is a short human-readable qualifier (deny reason, profiled
	// values, chaos verdict). Kept small; the typed fields carry identity.
	Detail string
}

// Sink consumes emitted records. Implementations must not retain pointers
// into the record (it is passed by value) and must be deterministic: the
// trace layer's contract is byte-identical output at a fixed seed.
type Sink interface {
	Emit(Record)
}

// Tracer assigns record ids and timestamps and forwards to a Sink. A nil
// *Tracer is the disabled tracer: every method is safe to call and does
// nothing, so components gate their tracing on a single nil-check.
type Tracer struct {
	sink   Sink
	now    func() sim.Time
	nextID uint64
}

// New creates a tracer writing to sink. Call SetClock once a simulation
// kernel exists so records carry virtual time.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// SetClock installs the virtual-time source (pass kernel.Now). Safe on a
// nil tracer. Experiments that run several kernels sequentially re-point
// the clock at each new kernel.
func (t *Tracer) SetClock(now func() sim.Time) {
	if t != nil {
		t.now = now
	}
}

// Enabled reports whether emissions reach a sink. Call sites that must
// format a Detail string should guard on this so the disabled path does
// not pay for fmt.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit stamps the record with the next id and the current virtual time
// and hands it to the sink, returning the id for use as a causal parent.
// On a nil tracer it returns 0 without touching the record.
func (t *Tracer) Emit(r Record) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	r.ID = t.nextID
	if t.now != nil {
		r.At = t.now()
	}
	t.sink.Emit(r)
	return r.ID
}

// Ring is a fixed-capacity ring-buffer sink: the last cap records are
// kept, older ones are overwritten. The buffer is allocated once at
// construction, so steady-state emission allocates nothing (Detail
// strings aside, which the emitting site owns).
type Ring struct {
	buf   []Record
	start int
	n     int
	total uint64
}

// NewRing creates a ring holding the most recent capacity records.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Record, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(rec Record) {
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
}

// Records returns the buffered records oldest-first (a fresh slice).
func (r *Ring) Records() []Record {
	out := make([]Record, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Dropped reports how many records the ring has overwritten.
func (r *Ring) Dropped() uint64 { return r.total - uint64(r.n) }
