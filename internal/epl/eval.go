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
// Every behavior of a firing rule applies: a balance or provclass behavior
// gives one intent however many contexts fired, the others one per distinct
// actor or pair they name.
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
// (NaN when the condition states no such bound).
type BalanceIntent struct {
	Rule  *Rule
	Types []string
	Res   Resource
	Upper float64
	Lower float64
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
	// stopped at maxBindings. A server-scoped rule examines every listed server;
	// any other rule the complete bindings its enumeration reached, which a
	// top-level ref(...) or call-relation join in the rule's plan (see plan)
	// narrows to the actors that could satisfy it: the contexts checked,
	// not the cross product of the rule's types.
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
		if resource && rule.HasResourceBehavior() || interaction && rule.HasInteractionBehavior() {
			e.rule(rule)
		}
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

	b     binding
	cands [][]*ActorInfo // per level: the candidates a ref(...) or a join names

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
	clear(e.dd.balance)
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
	balance   map[*BalanceBeh]bool
	provclass map[*ProvClassBeh]bool
}

func newDedup() *dedup {
	return &dedup{
		pairs:     map[[3]uint64]bool{},
		pins:      map[actor.Ref]bool{},
		reserve:   map[actor.Ref]bool{},
		balance:   map[*BalanceBeh]bool{},
		provclass: map[*ProvClassBeh]bool{},
	}
}

// level is one step of a rule's enumeration: the ref it binds and where its
// candidates come from. An inref takes precedence over a join; with
// neither, the level takes every actor of its type.
type level struct {
	ref   *ActorRef
	inref *InRefCond   // candidates: its container's property refs
	join  *CallFeature // candidates: the callers its callee's Calls name
}

// plan is a rule's enumeration, one level per BindingRefs entry; the parser
// computes it once per rule. Only the condition's top-level `and`
// conjuncts narrow a level: each must hold for the rule to fire, so an
// actor one excludes cannot satisfy the condition, while a conjunct under
// an `or` may be false in a firing context. A level's inref is the first
// such ref(...), in syntactic order, whose subject it binds and whose
// container binds at an earlier level. Its join is the first comparison
// caller.call(callee.m).stat op v whose caller it binds, whose callee binds
// earlier, and which cannot hold at 0: count, size and perc are all 0 for a
// caller the callee's Calls do not name.
func plan(rule *Rule) []level {
	refs := rule.BindingRefs()
	b := binding{levels: make([]level, len(refs))}
	for i, ref := range refs {
		b.levels[i].ref = ref
	}
	var narrow func(c Cond)
	narrow = func(c Cond) {
		switch cond := c.(type) {
		case *AndCond:
			narrow(cond.L)
			narrow(cond.R)
		case *InRefCond:
			if sub := b.slot(cond.Sub); b.slot(cond.Container) < sub && b.levels[sub].inref == nil {
				b.levels[sub].inref = cond
			}
		case *CmpCond:
			f, ok := cond.Feat.(*CallFeature)
			if !ok || f.Client || cond.Op.Apply(0, cond.Val) {
				return
			}
			if caller := b.slot(f.Caller); b.slot(f.Callee) < caller && b.levels[caller].join == nil {
				b.levels[caller].join = f
			}
		}
	}
	narrow(rule.Cond)
	return b.levels
}

// binding holds the actor bound at each of a rule's levels, by position; a
// slot not yet bound holds nil. The first slot's actor is the anchor: its
// server is the rule's "server".
type binding struct {
	levels []level
	acts   []*ActorInfo
}

// slot is the index of the level that binds ref, or -1.
func (b *binding) slot(ref *ActorRef) int {
	for i := range b.levels {
		if sameBindingTarget(b.levels[i].ref, ref) {
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
	n := len(rule.levels)
	e.b.levels, e.b.acts = rule.levels, slices.Grow(e.b.acts[:0], n)[:n]
	e.examined, e.fired, e.truncated = 0, 0, false
	if n == 0 {
		// Server-scoped rule (e.g. pure balance): the condition is checked
		// against each server.
		for _, srv := range e.snap.Servers {
			e.examined++
			if e.cond(rule.Cond, srv) {
				e.fired++
				if e.obs != nil {
					e.observe(rule, actor.Ref{}, srv)
				}
			}
		}
		if e.fired > 0 {
			e.emit(rule)
		}
	} else {
		for len(e.cands) < n {
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
	e.emit(rule)
}

// rank fills e.at on its first call in an evaluation and reports whether
// a join may use it. The join reaches callers through their ids, so
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

// candidates lists level i's actors as its plan says: the property refs of
// its inref's bound container; else the callers its join's bound callee
// names, when the snapshot's ids allow the join (see rank); else every
// actor of its type. The last two list actors in the same order.
func (e *evaluator) candidates(i int) []*ActorInfo {
	l := &e.b.levels[i]
	typ := l.ref.Type()
	switch {
	case l.inref != nil:
		cands := e.cands[i][:0]
		for _, pr := range e.b.lookup(l.inref.Container).Props[l.inref.Prop] {
			if ai := e.snap.Actor(pr); ai != nil && (typ == AnyType || ai.Type == typ) {
				cands = append(cands, ai)
			}
		}
		e.cands[i] = cands
	case l.join != nil && e.rank():
		e.cands[i] = e.callers(e.cands[i][:0], e.b.lookup(l.join.Callee), l.join.FName, typ)
	default:
		return e.snap.OfType(typ)
	}
	return e.cands[i]
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

// emit applies the rule's behaviors to the current binding, one intent per
// behavior: a balance or provclass behavior once per evaluation, one naming
// actors once per distinct actor or pair.
func (e *evaluator) emit(rule *Rule) {
	out, dd := e.out, e.dd
	for _, beh := range rule.Behaviors {
		isRes := beh.Kind().IsResource()
		if isRes && !e.resource || !isRes && !e.interaction {
			continue
		}
		switch bh := beh.(type) {
		case *BalanceBeh:
			if !dd.balance[bh] {
				dd.balance[bh] = true
				upper, lower := CondBounds(rule.Cond, bh.Res)
				out.Balance = append(out.Balance, BalanceIntent{Rule: rule, Types: bh.Types, Res: bh.Res, Upper: upper, Lower: lower})
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
			if !dd.provclass[bh] {
				dd.provclass[bh] = true
				out.ProvClass = append(out.ProvClass, ProvClassIntent{Rule: rule, Classes: bh.Classes})
			}
		}
	}
}
