package epl

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"plasma/internal/actor"
	"plasma/internal/cluster"
)

// Intents are the concrete elasticity demands produced by evaluating a
// policy against a snapshot. The EMR turns them into migration actions.
type Intents struct {
	Balance   []BalanceIntent
	Reserve   []ReserveIntent
	Colocate  []PairIntent
	Separate  []PairIntent
	Pin       []PinIntent
	ProvClass []ProvClassIntent
}

// BalanceIntent asks for workload balancing of the listed types on the
// named resource. Upper/Lower are taken from the rule's own condition
// (NaN when the condition states no such bound); Violating lists the
// snapshot servers whose utilization triggered the rule.
type BalanceIntent struct {
	Rule      *Rule
	Types     []string
	Res       Resource
	Upper     float64
	Lower     float64
	Violating []cluster.MachineID
}

// HasUpper reports whether the rule stated an upper bound.
func (b BalanceIntent) HasUpper() bool { return !math.IsNaN(b.Upper) }

// HasLower reports whether the rule stated a lower bound.
func (b BalanceIntent) HasLower() bool { return !math.IsNaN(b.Lower) }

// Covers reports whether the intent's type list includes t.
func (b BalanceIntent) Covers(t string) bool {
	for _, x := range b.Types {
		if x == t || x == AnyType {
			return true
		}
	}
	return false
}

// ReserveIntent asks for the actor to get a dedicated server with idle Res.
type ReserveIntent struct {
	Rule  *Rule
	Actor actor.Ref
	Res   Resource
}

// PairIntent asks for two actors to share (colocate) or not share
// (separate) a server.
type PairIntent struct {
	Rule *Rule
	A, B actor.Ref
}

// PinIntent asks for the actor to stay where it is.
type PinIntent struct {
	Rule  *Rule
	Actor actor.Ref
}

// ProvClassIntent asks scale-out to prefer the named provisioning classes
// (in order) while the rule's condition holds.
type ProvClassIntent struct {
	Rule    *Rule
	Classes []string
}

// maxBindings caps the complete bindings one rule's enumeration reaches, as
// a runaway guard. A rule that hits it stops there, and RuleEvaluated says
// so.
const maxBindings = 1 << 20

// FeatureValue is one profiled comparison observed while a rule fired: the
// condition's textual form and the measured left-hand value.
type FeatureValue struct {
	Feature string
	Value   float64
}

// EvalObserver receives evaluation telemetry. Observation is passive: it
// never changes which intents Evaluate produces, and the values reported to
// RuleFired are recomputed from the same snapshot the decision used.
type EvalObserver interface {
	// RuleEvaluated is called once per applicable rule with the number of
	// contexts examined, how many of them fired, and whether the enumeration
	// stopped at maxBindings. A server-scoped rule examines every up server;
	// any other rule the complete bindings its enumeration reached, which a
	// ref(...) or a call-relation join (see joinLevels) narrows to the
	// actors that could satisfy it: the contexts checked, not the cross
	// product of the rule's types.
	RuleEvaluated(rule *Rule, examined, fired int, truncated bool)
	// RuleFired is called for each firing context. anchor is the zero Ref
	// for server-scoped rules; values lists the profiled comparisons that
	// held in this context, in a buffer the evaluation reuses: it is valid
	// only during the call.
	RuleFired(rule *Rule, anchor actor.Ref, srv cluster.MachineID, values []FeatureValue)
}

// Evaluate runs every rule in pol against snap and collects intents.
// resourceOnly / interactionOnly select which behavior classes to apply:
// LEMs evaluate with interaction=true, resource=false (Table 2
// applyActRules); GEMs the reverse (applyResRules). Passing both true
// applies everything (useful for tests and single-node deployments).
func Evaluate(pol *Policy, snap *Snapshot, resource, interaction bool) *Intents {
	return EvaluateObserved(pol, snap, resource, interaction, nil)
}

// EvaluateObserved is Evaluate with an optional observer (nil disables
// observation and is exactly Evaluate).
func EvaluateObserved(pol *Policy, snap *Snapshot, resource, interaction bool, obs EvalObserver) *Intents {
	e := evaluators.Get().(*evaluator)
	defer e.release()
	e.snap, e.resource, e.interaction, e.out, e.obs = snap, resource, interaction, &Intents{}, obs
	for _, rule := range pol.Rules {
		wantRule := false
		for _, b := range rule.Behaviors {
			if b.Kind().IsResource() && resource || !b.Kind().IsResource() && interaction {
				wantRule = true
			}
		}
		if !wantRule {
			continue
		}
		e.rule(rule)
	}
	return e.out
}

// evaluator is one evaluation's state, reused across the policy's rules: the
// dedup sets, the binding being enumerated, the levels' candidate buffers
// and the perc denominators summed so far. It serves one Evaluate call at a
// time and writes nothing into the policy, so evaluations of one policy may
// run at once.
type evaluator struct {
	snap                  *Snapshot
	resource, interaction bool
	out                   *Intents
	dd                    *dedup
	obs                   EvalObserver
	vals                  []FeatureValue // a firing's values, reused

	b      binding
	inrefs []*InRefCond
	joins  []*CallFeature      // per level: the join naming its candidates, or nil
	cands  [][]*ActorInfo      // per level: the candidates a ref(...) or a join names
	viol   []cluster.MachineID // a rule's violating servers, or one firing's server

	examined, fired int
	truncated       bool

	// at[id] is the actor's index in Actors, filled by the first rule that
	// joins (see rank); distinct is whether the join may use it.
	at               []int32
	ranked, distinct bool

	percTotals map[percKey]int64
}

// evaluators keeps evaluators between calls, so an evaluation reuses the
// dedup sets and buffers earlier ones grew rather than growing its own.
var evaluators = sync.Pool{New: func() any { return &evaluator{dd: newDedup()} }}

// release empties e of the evaluation it served and returns it to the pool.
func (e *evaluator) release() {
	e.snap, e.out, e.obs, e.ranked = nil, nil, nil, false
	clear(e.percTotals)
	clear(e.dd.pairs)
	clear(e.dd.pins)
	clear(e.dd.reserve)
	clear(e.dd.provclass)
	for _, c := range e.cands {
		clear(c[:cap(c)])
	}
	evaluators.Put(e)
}

// dedup suppresses duplicate intents arising from multiple bindings of the
// same rule (e.g. a folder with two files triggers reserve(folder) once).
type dedup struct {
	pairs     map[[3]uint64]bool
	pins      map[actor.Ref]bool
	reserve   map[actor.Ref]bool
	provclass map[*Rule]bool
}

func newDedup() *dedup {
	return &dedup{
		pairs:     map[[3]uint64]bool{},
		pins:      map[actor.Ref]bool{},
		reserve:   map[actor.Ref]bool{},
		provclass: map[*Rule]bool{},
	}
}

// binding holds the actor bound at each of a rule's BindingRefs, by
// position; a slot not yet bound holds nil. The first slot's actor is the
// anchor: its server is the rule's "server".
type binding struct {
	refs []*ActorRef
	acts []*ActorInfo
}

// slot is the index of the binding ref that ref names, or -1.
func (b *binding) slot(ref *ActorRef) int {
	for i, r := range b.refs {
		if sameBindingTarget(r, ref) {
			return i
		}
	}
	return -1
}

func (b *binding) lookup(ref *ActorRef) *ActorInfo {
	if i := b.slot(ref); i >= 0 {
		return b.acts[i]
	}
	return nil
}

// sameBindingTarget reports whether two refs bind the same slot.
func sameBindingTarget(a, b *ActorRef) bool {
	if a == b {
		return true
	}
	return a.Decl != nil && a.Decl == b.Decl
}

func (e *evaluator) rule(rule *Rule) {
	refs := rule.BindingRefs()
	e.b.refs, e.b.acts = refs, slices.Grow(e.b.acts[:0], len(refs))[:len(refs)]
	e.examined, e.fired, e.truncated = 0, 0, false
	if len(refs) == 0 {
		// Server-scoped rule (e.g. pure balance): the condition is checked
		// against each server.
		e.viol = e.viol[:0]
		for _, srv := range e.snap.Servers {
			if !srv.Up {
				continue
			}
			e.examined++
			if e.cond(rule.Cond, srv) {
				e.viol = append(e.viol, srv.ID)
				if e.obs != nil {
					e.observe(rule, actor.Ref{}, srv)
				}
			}
		}
		e.fired = len(e.viol)
		if e.fired > 0 {
			e.emit(rule, e.viol)
		}
	} else {
		e.inrefs = appendInRefs(e.inrefs[:0], rule.Cond)
		e.joinLevels(rule.Cond)
		for len(e.cands) < len(refs) {
			e.cands = append(e.cands, nil)
		}
		e.enum(rule, 0)
	}
	if e.obs != nil {
		e.obs.RuleEvaluated(rule, e.examined, e.fired, e.truncated)
	}
}

// enum binds level i to each of its candidates in turn and, once every
// level is bound, checks the condition in that context.
func (e *evaluator) enum(rule *Rule, i int) {
	if i == len(e.b.acts) {
		e.check(rule)
		return
	}
	for _, cand := range e.candidates(i) {
		if e.truncated {
			break
		}
		e.b.acts[i] = cand
		e.enum(rule, i+1)
	}
	e.b.acts[i] = nil
}

// check evaluates the rule in the context of the complete binding.
func (e *evaluator) check(rule *Rule) {
	if e.examined == maxBindings {
		e.truncated = true
		return
	}
	e.examined++
	anchor := e.b.acts[0]
	ctxSrv := e.snap.Server(anchor.Server)
	if ctxSrv == nil || !e.cond(rule.Cond, ctxSrv) {
		return
	}
	e.fired++
	if e.obs != nil {
		e.observe(rule, anchor.Ref, ctxSrv)
	}
	e.viol = append(e.viol[:0], ctxSrv.ID)
	e.emit(rule, e.viol)
}

// appendInRefs appends c's ref(...) atoms to out, in syntactic order.
func appendInRefs(out []*InRefCond, c Cond) []*InRefCond {
	switch cond := c.(type) {
	case *AndCond:
		return appendInRefs(appendInRefs(out, cond.L), cond.R)
	case *OrCond:
		return appendInRefs(appendInRefs(out, cond.L), cond.R)
	case *InRefCond:
		return append(out, cond)
	}
	return out
}

// joinLevels sets e.joins: per binding level, the call whose callers name
// the level's candidates, or nil. A comparison joins when it is a top-level
// conjunct caller.call(callee.m).stat op v whose callee binds at an earlier
// level than its caller, and when it cannot hold at 0. Count, size and perc
// are all 0 for a caller the callee's Calls do not name, so only a named
// caller can then satisfy the condition. A comparison true at 0, or one
// under an `or`, leaves its level on the cross product.
func (e *evaluator) joinLevels(c Cond) {
	n := len(e.b.refs)
	e.joins = slices.Grow(e.joins[:0], n)[:n]
	clear(e.joins)
	e.join(c)
}

func (e *evaluator) join(c Cond) {
	switch cond := c.(type) {
	case *AndCond:
		e.join(cond.L)
		e.join(cond.R)
	case *CmpCond:
		f, ok := cond.Feat.(*CallFeature)
		if !ok || f.Client || cond.Op.Apply(0, cond.Val) {
			return
		}
		callee, caller := e.b.slot(f.Callee), e.b.slot(f.Caller)
		if callee >= 0 && callee < caller && e.joins[caller] == nil && e.rank() {
			e.joins[caller] = f
		}
	}
}

// rank fills e.at on its first call in an evaluation and reports whether
// the join may use it. The join reaches callers through their ids, so
// every listed actor must have a nonzero id of its own: Actor then returns
// each one.
func (e *evaluator) rank() bool {
	if e.ranked {
		return e.distinct
	}
	e.ranked, e.distinct = true, true
	e.at = slices.Grow(e.at[:0], len(e.snap.byID))[:len(e.snap.byID)]
	for i, a := range e.snap.Actors {
		if a.Ref.ID == 0 || e.snap.Actor(a.Ref) != a {
			e.distinct = false
			break
		}
		e.at[a.Ref.ID] = int32(i)
	}
	return e.distinct
}

// candidates lists level i's actors: the container's property refs when
// the level is the subject of a ref(...) whose container is bound; else the
// callers its join's callee names; else every actor of its type. The last
// two list actors in the same order.
func (e *evaluator) candidates(i int) []*ActorInfo {
	ref := e.b.refs[i]
	typ := ref.Type()
	for _, ir := range e.inrefs {
		if !sameBindingTarget(ir.Sub, ref) {
			continue
		}
		container := e.b.lookup(ir.Container)
		if container == nil {
			continue
		}
		cands := e.cands[i][:0]
		for _, pr := range container.Props[ir.Prop] {
			if ai := e.snap.Actor(pr); ai != nil && (typ == AnyType || ai.Type == typ) {
				cands = append(cands, ai)
			}
		}
		e.cands[i] = cands
		return cands
	}
	if f := e.joins[i]; f != nil {
		e.cands[i] = e.callers(e.cands[i][:0], e.b.lookup(f.Callee), f.FName, typ)
		return e.cands[i]
	}
	return e.snap.OfType(typ)
}

// callers appends to buf the actors of type typ that callee's Calls name as
// callers of method, each once, in Actors order: the order OfType lists
// them in, so the order the cross product visits them in. (The profiler
// sorts Calls by its own key; nothing here relies on that.)
func (e *evaluator) callers(buf []*ActorInfo, callee *ActorInfo, method, typ string) []*ActorInfo {
	for _, cs := range callee.Calls {
		if cs.Method != method {
			continue
		}
		if ai := e.snap.Actor(cs.Caller); ai != nil && (typ == AnyType || ai.Type == typ) {
			buf = append(buf, ai)
		}
	}
	slices.SortFunc(buf, func(x, y *ActorInfo) int { return cmp.Compare(e.at[x.Ref.ID], e.at[y.Ref.ID]) })
	return slices.Compact(buf)
}

// observe reports one firing context with the profiled left-hand value of
// every comparison in the rule's condition.
func (e *evaluator) observe(rule *Rule, anchor actor.Ref, ctxSrv *ServerInfo) {
	e.vals = e.vals[:0]
	WalkCmps(rule.Cond, func(cond *CmpCond) {
		if v, ok := e.feature(cond.Feat, cond.Stat, ctxSrv); ok {
			e.vals = append(e.vals, FeatureValue{Feature: cond.String(), Value: v})
		}
	})
	e.obs.RuleFired(rule, anchor, ctxSrv.ID, e.vals)
}

func (e *evaluator) cond(c Cond, ctxSrv *ServerInfo) bool {
	switch cond := c.(type) {
	case *TrueCond:
		return true
	case *AndCond:
		return e.cond(cond.L, ctxSrv) && e.cond(cond.R, ctxSrv)
	case *OrCond:
		return e.cond(cond.L, ctxSrv) || e.cond(cond.R, ctxSrv)
	case *InRefCond:
		sub := e.b.lookup(cond.Sub)
		container := e.b.lookup(cond.Container)
		if sub == nil || container == nil {
			return false
		}
		for _, r := range container.Props[cond.Prop] {
			if r == sub.Ref {
				return true
			}
		}
		return false
	case *CmpCond:
		v, ok := e.feature(cond.Feat, cond.Stat, ctxSrv)
		return ok && cond.Op.Apply(v, cond.Val)
	}
	return false
}

func (e *evaluator) feature(f Feature, stat Stat, ctxSrv *ServerInfo) (float64, bool) {
	switch feat := f.(type) {
	case *ResFeature:
		if feat.Server {
			if ctxSrv == nil {
				return 0, false
			}
			return ctxSrv.Res(feat.Res), true
		}
		a := e.b.lookup(feat.Actor)
		if a == nil {
			return 0, false
		}
		if stat == Size {
			return a.ResSize(feat.Res), true
		}
		return a.ResOf(feat.Res), true
	case *CallFeature:
		callee := e.b.lookup(feat.Callee)
		if callee == nil {
			return 0, false
		}
		k := percKey{srv: callee.Server, method: feat.FName}
		if feat.Client {
			k.callerType = actor.ClientCaller
		} else if feat.Caller != nil {
			if ca := e.b.lookup(feat.Caller); ca != nil {
				k.caller = ca.Ref
			} else {
				k.callerType = feat.Caller.Type()
			}
		}
		count, bytes := sumCalls(callee, k.method, k.callerType, k.caller)
		switch stat {
		case Count:
			return float64(count), true
		case Size:
			return float64(bytes), true
		case Perc:
			// Share of this method's calls received by this actor among all
			// actors on the same server (§3.2 category iii).
			total := e.percTotal(k)
			if total == 0 {
				return 0, true
			}
			return float64(count) / float64(total) * 100, true
		}
	}
	return 0, false
}

// percKey names one perc denominator: a server, a method and a caller
// filter (a caller type, or one caller).
type percKey struct {
	srv        cluster.MachineID
	method     string
	callerType string
	caller     actor.Ref
}

// percTotal is a perc statistic's denominator: the calls under k's method
// and caller filter that every actor on k's server received. Each is summed
// once per evaluation: the first ask for a method and caller filter sums
// every server's in one pass over the actors.
func (e *evaluator) percTotal(k percKey) int64 {
	if t, ok := e.percTotals[k]; ok {
		return t
	}
	if e.percTotals == nil {
		e.percTotals = map[percKey]int64{}
	}
	e.percTotals[k] = 0 // k's server may host no actor
	for _, a := range e.snap.Actors {
		c, _ := sumCalls(a, k.method, k.callerType, k.caller)
		on := k
		on.srv = a.Server
		e.percTotals[on] += c
	}
	return e.percTotals[k]
}

func sumCalls(a *ActorInfo, method, callerType string, caller actor.Ref) (count, bytes int64) {
	for _, cs := range a.Calls {
		if cs.Method != method {
			continue
		}
		if callerType != "" && cs.CallerType != callerType {
			continue
		}
		if !caller.Zero() && cs.Caller != caller {
			continue
		}
		count += cs.Count
		bytes += cs.Bytes
	}
	return count, bytes
}

// emit applies the rule's behaviors to the current binding; violating is
// the servers it fired on.
func (e *evaluator) emit(rule *Rule, violating []cluster.MachineID) {
	out, dd := e.out, e.dd
	for _, beh := range rule.Behaviors {
		isRes := beh.Kind().IsResource()
		if isRes && !e.resource || !isRes && !e.interaction {
			continue
		}
		switch bh := beh.(type) {
		case *BalanceBeh:
			upper, lower := CondBounds(rule.Cond, bh.Res)
			var kept bool
			out.Balance, kept = mergeBalance(out.Balance, BalanceIntent{
				Rule: rule, Types: bh.Types, Res: bh.Res, Upper: upper, Lower: lower, Violating: violating,
			})
			if kept {
				e.viol = nil // the new intent owns violating's array
			}
		case *ReserveBeh:
			if a := e.b.lookup(bh.Actor); a != nil && !dd.reserve[a.Ref] {
				dd.reserve[a.Ref] = true
				out.Reserve = append(out.Reserve, ReserveIntent{Rule: rule, Actor: a.Ref, Res: bh.Res})
			}
		case *ColocateBeh:
			if x, y := e.b.lookup(bh.A), e.b.lookup(bh.B); x != nil && y != nil && x.Ref != y.Ref {
				key := [3]uint64{uint64(x.Ref.ID), uint64(y.Ref.ID), 0}
				if !dd.pairs[key] {
					dd.pairs[key] = true
					out.Colocate = append(out.Colocate, PairIntent{Rule: rule, A: x.Ref, B: y.Ref})
				}
			}
		case *SeparateBeh:
			if x, y := e.b.lookup(bh.A), e.b.lookup(bh.B); x != nil && y != nil && x.Ref != y.Ref {
				key := [3]uint64{uint64(x.Ref.ID), uint64(y.Ref.ID), 1}
				if !dd.pairs[key] {
					dd.pairs[key] = true
					out.Separate = append(out.Separate, PairIntent{Rule: rule, A: x.Ref, B: y.Ref})
				}
			}
		case *PinBeh:
			if a := e.b.lookup(bh.Actor); a != nil && !dd.pins[a.Ref] {
				dd.pins[a.Ref] = true
				out.Pin = append(out.Pin, PinIntent{Rule: rule, Actor: a.Ref})
			}
		case *ProvClassBeh:
			// One intent per rule regardless of how many contexts fired.
			if !dd.provclass[rule] {
				dd.provclass[rule] = true
				out.ProvClass = append(out.ProvClass, ProvClassIntent{Rule: rule, Classes: bh.Classes})
			}
		}
	}
}

// mergeBalance collapses repeated triggers of the same balance rule into
// one intent with the union of violating servers. It reports whether bi
// became a new intent, which then keeps bi.Violating.
func mergeBalance(list []BalanceIntent, bi BalanceIntent) ([]BalanceIntent, bool) {
	for i := range list {
		if list[i].Rule == bi.Rule {
			had := list[i].Violating
			for _, s := range bi.Violating {
				if !slices.Contains(had, s) {
					list[i].Violating = append(list[i].Violating, s)
				}
			}
			return list, false
		}
	}
	return append(list, bi), true
}
