package epl

import (
	"math"

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

// maxBindings caps binding enumeration per rule as a runaway guard.
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
	// contexts examined (bindings, or servers for server-scoped rules) and
	// how many of them fired.
	RuleEvaluated(rule *Rule, examined, fired int)
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
	out := &Intents{}
	dedup := newDedup()
	var o *observer
	if obs != nil {
		o = &observer{EvalObserver: obs}
	}
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
		evalRule(rule, snap, resource, interaction, out, dedup, o)
	}
	return out
}

// observer is an evaluation's EvalObserver with the FeatureValue buffer its
// firings reuse.
type observer struct {
	EvalObserver
	vals []FeatureValue
}

// fired reports one firing context with its comparisons' values.
func (o *observer) fired(rule *Rule, anchor actor.Ref, snap *Snapshot, b *binding, ctxSrv *ServerInfo) {
	o.vals = condValues(o.vals[:0], rule.Cond, snap, b, ctxSrv)
	o.RuleFired(rule, anchor, ctxSrv.ID, o.vals)
}

// condValues appends to out the profiled left-hand value of every comparison
// in a condition for one firing context. Pure: reads only the snapshot.
func condValues(out []FeatureValue, c Cond, snap *Snapshot, b *binding, ctxSrv *ServerInfo) []FeatureValue {
	WalkCmps(c, func(cond *CmpCond) {
		if v, ok := evalFeature(cond.Feat, cond.Stat, snap, b, ctxSrv); ok {
			out = append(out, FeatureValue{Feature: cond.String(), Value: v})
		}
	})
	return out
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

// binding maps binding refs (by identity of their VarDecl, or the ref
// itself for anonymous patterns) to concrete actors.
type binding struct {
	byDecl map[*VarDecl]*ActorInfo
	byRef  map[*ActorRef]*ActorInfo
	anchor *ActorInfo // first bound actor; its server is the rule's "server"
}

func (b *binding) lookup(ref *ActorRef) *ActorInfo {
	if ref.Decl != nil {
		return b.byDecl[ref.Decl]
	}
	return b.byRef[ref]
}

func evalRule(rule *Rule, snap *Snapshot, resource, interaction bool, out *Intents, dd *dedup, obs *observer) {
	refs := rule.BindingRefs()
	if len(refs) == 0 {
		// Server-scoped rule (e.g. pure balance): the condition is checked
		// against each server.
		var violating []cluster.MachineID
		examined := 0
		for _, srv := range snap.Servers {
			if !srv.Up {
				continue
			}
			examined++
			b := &binding{}
			if evalCond(rule.Cond, snap, b, srv) {
				violating = append(violating, srv.ID)
				if obs != nil {
					obs.fired(rule, actor.Ref{}, snap, b, srv)
				}
			}
		}
		if obs != nil {
			obs.RuleEvaluated(rule, examined, len(violating))
		}
		if len(violating) > 0 {
			emitBehaviors(rule, &binding{}, violating, resource, interaction, out, dd)
		}
		return
	}

	// Enumerate bindings with InRef-based pruning.
	inrefs := collectInRefs(rule.Cond)
	b := &binding{byDecl: map[*VarDecl]*ActorInfo{}, byRef: map[*ActorRef]*ActorInfo{}}
	count := 0
	fired := 0
	var rec func(i int)
	rec = func(i int) {
		if count > maxBindings {
			return
		}
		if i == len(refs) {
			count++
			ctxSrv := snap.Server(b.anchor.Server)
			if ctxSrv == nil {
				return
			}
			if evalCond(rule.Cond, snap, b, ctxSrv) {
				fired++
				if obs != nil {
					obs.fired(rule, b.anchor.Ref, snap, b, ctxSrv)
				}
				emitBehaviors(rule, b, []cluster.MachineID{ctxSrv.ID}, resource, interaction, out, dd)
			}
			return
		}
		ref := refs[i]
		cands := candidatesFor(ref, snap, b, inrefs)
		for _, cand := range cands {
			bind(b, ref, cand, i == 0)
			rec(i + 1)
			unbind(b, ref, i == 0)
		}
	}
	rec(0)
	if obs != nil {
		obs.RuleEvaluated(rule, count, fired)
	}
}

func bind(b *binding, ref *ActorRef, a *ActorInfo, first bool) {
	if ref.Decl != nil {
		b.byDecl[ref.Decl] = a
	} else {
		b.byRef[ref] = a
	}
	if first {
		b.anchor = a
	}
}

func unbind(b *binding, ref *ActorRef, first bool) {
	if ref.Decl != nil {
		delete(b.byDecl, ref.Decl)
	} else {
		delete(b.byRef, ref)
	}
	if first {
		b.anchor = nil
	}
}

func collectInRefs(c Cond) []*InRefCond {
	var out []*InRefCond
	var walk func(Cond)
	walk = func(c Cond) {
		switch cond := c.(type) {
		case *AndCond:
			walk(cond.L)
			walk(cond.R)
		case *OrCond:
			walk(cond.L)
			walk(cond.R)
		case *InRefCond:
			out = append(out, cond)
		}
	}
	walk(c)
	return out
}

// candidatesFor narrows a ref's candidates: when the ref is the subject of
// an InRef whose container is already bound, only the container's property
// refs qualify.
func candidatesFor(ref *ActorRef, snap *Snapshot, b *binding, inrefs []*InRefCond) []*ActorInfo {
	typ := ref.Type()
	for _, ir := range inrefs {
		if !sameBindingTarget(ir.Sub, ref) {
			continue
		}
		container := b.lookup(ir.Container)
		if container == nil {
			continue
		}
		var cands []*ActorInfo
		for _, pr := range container.Props[ir.Prop] {
			if ai := snap.Actor(pr); ai != nil && (typ == AnyType || ai.Type == typ) {
				cands = append(cands, ai)
			}
		}
		return cands
	}
	return snap.OfType(typ)
}

// sameBindingTarget reports whether two refs bind the same slot.
func sameBindingTarget(a, b *ActorRef) bool {
	if a == b {
		return true
	}
	return a.Decl != nil && a.Decl == b.Decl
}

func evalCond(c Cond, snap *Snapshot, b *binding, ctxSrv *ServerInfo) bool {
	switch cond := c.(type) {
	case *TrueCond:
		return true
	case *AndCond:
		return evalCond(cond.L, snap, b, ctxSrv) && evalCond(cond.R, snap, b, ctxSrv)
	case *OrCond:
		return evalCond(cond.L, snap, b, ctxSrv) || evalCond(cond.R, snap, b, ctxSrv)
	case *InRefCond:
		sub := b.lookup(cond.Sub)
		container := b.lookup(cond.Container)
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
		v, ok := evalFeature(cond.Feat, cond.Stat, snap, b, ctxSrv)
		return ok && cond.Op.Apply(v, cond.Val)
	}
	return false
}

func evalFeature(f Feature, stat Stat, snap *Snapshot, b *binding, ctxSrv *ServerInfo) (float64, bool) {
	switch feat := f.(type) {
	case *ResFeature:
		if feat.Server {
			if ctxSrv == nil {
				return 0, false
			}
			return ctxSrv.Res(feat.Res), true
		}
		a := b.lookup(feat.Actor)
		if a == nil {
			return 0, false
		}
		if stat == Size {
			return a.ResSize(feat.Res), true
		}
		return a.ResOf(feat.Res), true
	case *CallFeature:
		callee := b.lookup(feat.Callee)
		if callee == nil {
			return 0, false
		}
		wantCallerType := ""
		var wantCaller actor.Ref
		if feat.Client {
			wantCallerType = actor.ClientCaller
		} else if feat.Caller != nil {
			if ca := b.lookup(feat.Caller); ca != nil {
				wantCaller = ca.Ref
			} else {
				wantCallerType = feat.Caller.Type()
			}
		}
		count, bytes := sumCalls(callee, feat.FName, wantCallerType, wantCaller)
		switch stat {
		case Count:
			return float64(count), true
		case Size:
			return float64(bytes), true
		case Perc:
			// Share of this method's calls received by this actor among all
			// actors on the same server (§3.2 category iii).
			var total int64
			for _, other := range snap.Actors {
				if other.Server != callee.Server {
					continue
				}
				c, _ := sumCalls(other, feat.FName, wantCallerType, wantCaller)
				total += c
			}
			if total == 0 {
				return 0, true
			}
			return float64(count) / float64(total) * 100, true
		}
	}
	return 0, false
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

func emitBehaviors(rule *Rule, b *binding, violating []cluster.MachineID, resource, interaction bool, out *Intents, dd *dedup) {
	for _, beh := range rule.Behaviors {
		isRes := beh.Kind().IsResource()
		if isRes && !resource || !isRes && !interaction {
			continue
		}
		switch bh := beh.(type) {
		case *BalanceBeh:
			upper, lower := CondBounds(rule.Cond, bh.Res)
			out.Balance = mergeBalance(out.Balance, BalanceIntent{
				Rule: rule, Types: bh.Types, Res: bh.Res, Upper: upper, Lower: lower, Violating: violating,
			})
		case *ReserveBeh:
			if a := b.lookup(bh.Actor); a != nil && !dd.reserve[a.Ref] {
				dd.reserve[a.Ref] = true
				out.Reserve = append(out.Reserve, ReserveIntent{Rule: rule, Actor: a.Ref, Res: bh.Res})
			}
		case *ColocateBeh:
			if x, y := b.lookup(bh.A), b.lookup(bh.B); x != nil && y != nil && x.Ref != y.Ref {
				key := [3]uint64{uint64(x.Ref.ID), uint64(y.Ref.ID), 0}
				if !dd.pairs[key] {
					dd.pairs[key] = true
					out.Colocate = append(out.Colocate, PairIntent{Rule: rule, A: x.Ref, B: y.Ref})
				}
			}
		case *SeparateBeh:
			if x, y := b.lookup(bh.A), b.lookup(bh.B); x != nil && y != nil && x.Ref != y.Ref {
				key := [3]uint64{uint64(x.Ref.ID), uint64(y.Ref.ID), 1}
				if !dd.pairs[key] {
					dd.pairs[key] = true
					out.Separate = append(out.Separate, PairIntent{Rule: rule, A: x.Ref, B: y.Ref})
				}
			}
		case *PinBeh:
			if a := b.lookup(bh.Actor); a != nil && !dd.pins[a.Ref] {
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
// one intent with the union of violating servers.
func mergeBalance(list []BalanceIntent, bi BalanceIntent) []BalanceIntent {
	for i := range list {
		if list[i].Rule == bi.Rule {
			have := map[cluster.MachineID]bool{}
			for _, s := range list[i].Violating {
				have[s] = true
			}
			for _, s := range bi.Violating {
				if !have[s] {
					list[i].Violating = append(list[i].Violating, s)
				}
			}
			return list
		}
	}
	return append(list, bi)
}
