// Package chaos is PLASMA's deterministic fault-injection layer. A seeded
// Injector decides the fate of every EMR control-plane message (REPORT,
// RREPLY, QUERY, QREPLY) — deliver, drop, delay, or duplicate — and applies
// timed crash/recovery schedules against the cluster, the GEMs, and the
// LEMs. All decisions flow from the injector's own seeded stream, so a
// fault schedule replays bit-for-bit: the same seed produces the same
// drops, the same delays, and the same recovery trace, which is what lets
// the experiment harness assert invariants under chaos instead of arguing
// for them (§4.3's "graceful degradation" claims).
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"

	"plasma/internal/sim"
	"plasma/internal/trace"
)

// MsgKind enumerates the EMR control-plane message types (§4.1 Fig. 4).
type MsgKind int

const (
	// Report is a LEM's per-period runtime info REPORT to its chosen GEM.
	Report MsgKind = iota
	// RReply is a GEM's reply to a reporting LEM (ack or planned actions).
	RReply
	// Query is a source LEM's admission QUERY to a migration target's LEM.
	Query
	// QReply is the target LEM's admission answer.
	QReply
	numKinds
)

func (k MsgKind) String() string {
	switch k {
	case Report:
		return "REPORT"
	case RReply:
		return "RREPLY"
	case Query:
		return "QUERY"
	case QReply:
		return "QREPLY"
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// Verdict is the fate of one intercepted message.
type Verdict int

const (
	// Deliver passes the message through untouched.
	Deliver Verdict = iota
	// Drop loses the message silently.
	Drop
	// Delay adds Decision.Delay of extra latency.
	Delay
	// Duplicate delivers the message twice (receivers must deduplicate).
	Duplicate
)

func (v Verdict) String() string {
	switch v {
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "dup"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Decision is an Interceptor's ruling on one message.
type Decision struct {
	Verdict Verdict
	Delay   sim.Duration // extra latency when Verdict == Delay
}

// Endpoint is one end of a control-plane message: the LEM of server ID, or
// GEM ID.
type Endpoint struct {
	GEM bool
	ID  int
}

// LEM is server srv's local elasticity manager.
func LEM(srv int) Endpoint { return Endpoint{ID: srv} }

// GEM is global elasticity manager id.
func GEM(id int) Endpoint { return Endpoint{GEM: true, ID: id} }

// String names the endpoint as the trace does: "lem3", "gem0".
func (e Endpoint) String() string {
	if e.GEM {
		return "gem" + strconv.Itoa(e.ID)
	}
	return "lem" + strconv.Itoa(e.ID)
}

// Interceptor decides the fate of control-plane messages. The EMR calls it
// once per logical send; a nil interceptor means a reliable network.
type Interceptor interface {
	Intercept(kind MsgKind, from, to Endpoint) Decision
}

// Faults is the per-message-kind fault plan: independent probabilities for
// drop, duplicate, and delay (checked in that order), and the delay bound.
type Faults struct {
	DropProb  float64
	DupProb   float64
	DelayProb float64
	// MaxDelay bounds injected delays; delays are drawn uniformly from
	// (0, MaxDelay]. Zero disables delay injection.
	MaxDelay sim.Duration
}

// Stats counts injector activity per message kind.
type Stats struct {
	Intercepted [numKinds]int
	Dropped     [numKinds]int
	Delayed     [numKinds]int
	Duplicated  [numKinds]int
}

// Total sums a per-kind counter array.
func total(a [numKinds]int) int {
	n := 0
	for _, v := range a {
		n += v
	}
	return n
}

// TotalDropped reports drops across all message kinds.
func (s Stats) TotalDropped() int { return total(s.Dropped) }

// TotalDelayed reports delays across all message kinds.
func (s Stats) TotalDelayed() int { return total(s.Delayed) }

// TotalDuplicated reports duplications across all message kinds.
func (s Stats) TotalDuplicated() int { return total(s.Duplicated) }

// TotalIntercepted reports all interception decisions taken.
func (s Stats) TotalIntercepted() int { return total(s.Intercepted) }

// Injector is a seeded, deterministic fault source. It implements
// Interceptor for message faults and records a human-readable event trace
// whose bit-identity across runs is the determinism invariant tests pin.
type Injector struct {
	rng   *rand.Rand
	now   func() sim.Time
	plans [numKinds]Faults
	trace []string
	tr    *trace.Tracer // nil = injections not in the structured trace

	Stats Stats
}

// SetTracer mirrors every injected fault into the structured decision trace
// (as KindChaos records) in addition to the injector's own string trace.
func (in *Injector) SetTracer(t *trace.Tracer) { in.tr = t }

// NewInjector creates an injector whose fault stream derives only from
// seed. now supplies timestamps for the trace (pass kernel.Now); nil uses
// zero times.
func NewInjector(seed int64, now func() sim.Time) *Injector {
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	return &Injector{rng: rand.New(rand.NewSource(seed)), now: now}
}

// SetFaults installs the fault plan for one message kind.
func (in *Injector) SetFaults(kind MsgKind, f Faults) {
	if kind >= 0 && kind < numKinds {
		in.plans[kind] = f
	}
}

// SetAllFaults installs the same fault plan for every message kind.
func (in *Injector) SetAllFaults(f Faults) {
	for k := MsgKind(0); k < numKinds; k++ {
		in.plans[k] = f
	}
}

// Intercept implements Interceptor: it draws the message's fate from the
// seeded stream and records any injected fault in the trace.
func (in *Injector) Intercept(kind MsgKind, from, to Endpoint) Decision {
	in.Stats.Intercepted[kind]++
	p := in.plans[kind]
	// Always draw all three variates so the stream position per message is
	// fixed regardless of plan probabilities: changing one probability does
	// not reshuffle every later decision.
	dropRoll := in.rng.Float64()
	dupRoll := in.rng.Float64()
	delayRoll := in.rng.Float64()
	switch {
	case dropRoll < p.DropProb:
		in.Stats.Dropped[kind]++
		in.Tracef("%s %s->%s drop", kind, from, to)
		return Decision{Verdict: Drop}
	case dupRoll < p.DupProb:
		in.Stats.Duplicated[kind]++
		in.Tracef("%s %s->%s dup", kind, from, to)
		return Decision{Verdict: Duplicate}
	case delayRoll < p.DelayProb && p.MaxDelay > 0:
		d := sim.Duration(in.rng.Int63n(int64(p.MaxDelay))) + 1
		in.Stats.Delayed[kind]++
		in.Tracef("%s %s->%s delay %v", kind, from, to, d)
		return Decision{Verdict: Delay, Delay: d}
	}
	return Decision{Verdict: Deliver}
}

// Tracef appends a timestamped line to the injector's event trace (the
// string trace whose bit-identity determinism tests pin) and mirrors it
// into the structured decision trace when a tracer is installed.
func (in *Injector) Tracef(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	in.trace = append(in.trace, fmt.Sprintf("t=%d %s", int64(in.now()), msg))
	in.tr.Emit(trace.Record{Kind: trace.KindChaos, Server: -1, Target: -1, Rule: -1, Detail: msg})
}

// Trace returns the recorded event trace (do not mutate).
func (in *Injector) Trace() []string { return in.trace }

// Rand exposes the injector's deterministic stream (for schedule
// generation tied to the same seed).
func (in *Injector) Rand() *rand.Rand { return in.rng }
