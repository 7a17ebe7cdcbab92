package epl

// eval_ref_test.go keeps the evaluator as it was before bindings became
// positional slots and call comparisons became joins: a cross product over
// every binding ref, two maps written and deleted per context, narrowed
// only by ref(...) atoms that are top-level `and` conjuncts. The
// differential tests (eval_diff_test.go, FuzzEvaluate) hold Evaluate to it
// intent for intent and firing for firing.

import (
	"plasma/internal/actor"
	"plasma/internal/cluster"
)

// refEvaluate is Evaluate as the reference evaluator computes it.
func refEvaluate(pol *Policy, snap *Snapshot, resource, interaction bool) *Intents {
	return refEvaluateObserved(pol, snap, resource, interaction, nil)
}

// refEvalObserver is EvalObserver as the reference evaluator reports to it:
// examined counts every complete binding, and there is no truncation flag
// (the enumeration stops silently past maxBindings).
type refEvalObserver interface {
	RuleEvaluated(rule *Rule, examined, fired int)
	RuleFired(rule *Rule, anchor actor.Ref, srv cluster.MachineID, values []FeatureValue)
}

// refEvaluateObserved is refEvaluate with an optional observer (nil disables
// observation and is exactly refEvaluate).
func refEvaluateObserved(pol *Policy, snap *Snapshot, resource, interaction bool, obs refEvalObserver) *Intents {
	out := &Intents{}
	refDedup := refNewDedup()
	var o *refObserver
	if obs != nil {
		o = &refObserver{refEvalObserver: obs}
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
		refEvalRule(rule, snap, resource, interaction, out, refDedup, o)
	}
	return out
}

// refObserver is an evaluation's observer with the FeatureValue buffer its
// firings reuse.
type refObserver struct {
	refEvalObserver
	vals []FeatureValue
}

// fired reports one firing context with its comparisons' values.
func (o *refObserver) fired(rule *Rule, anchor actor.Ref, snap *Snapshot, b *refBinding, ctxSrv *ServerInfo) {
	o.vals = refCondValues(o.vals[:0], rule.Cond, snap, b, ctxSrv)
	o.RuleFired(rule, anchor, ctxSrv.ID, o.vals)
}

// refCondValues appends to out the profiled left-hand value of every comparison
// in a condition for one firing context. Pure: reads only the snapshot.
func refCondValues(out []FeatureValue, c Cond, snap *Snapshot, b *refBinding, ctxSrv *ServerInfo) []FeatureValue {
	WalkCmps(c, func(cond *CmpCond) {
		if v, ok := refEvalFeature(cond.Feat, cond.Stat, snap, b, ctxSrv); ok {
			out = append(out, FeatureValue{Feature: cond.String(), Value: v})
		}
	})
	return out
}

// refDedup suppresses duplicate intents arising from multiple bindings of the
// same rule (e.g. a folder with two files triggers reserve(folder) once).
type refDedup struct {
	pairs     map[[3]uint64]bool
	pins      map[actor.Ref]bool
	reserve   map[actor.Ref]bool
	provclass map[*Rule]bool
}

func refNewDedup() *refDedup {
	return &refDedup{
		pairs:     map[[3]uint64]bool{},
		pins:      map[actor.Ref]bool{},
		reserve:   map[actor.Ref]bool{},
		provclass: map[*Rule]bool{},
	}
}

// refBinding maps binding refs (by identity of their VarDecl, or the ref
// itself for anonymous patterns) to concrete actors.
type refBinding struct {
	byDecl map[*VarDecl]*ActorInfo
	byRef  map[*ActorRef]*ActorInfo
	anchor *ActorInfo // first bound actor; its server is the rule's "server"
}

func (b *refBinding) lookup(ref *ActorRef) *ActorInfo {
	if ref.Decl != nil {
		return b.byDecl[ref.Decl]
	}
	return b.byRef[ref]
}

func refEvalRule(rule *Rule, snap *Snapshot, resource, interaction bool, out *Intents, dd *refDedup, obs *refObserver) {
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
			b := &refBinding{}
			if refEvalCond(rule.Cond, snap, b, srv) {
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
			refEmitBehaviors(rule, &refBinding{}, violating, resource, interaction, out, dd)
		}
		return
	}

	// Enumerate bindings with InRef-based pruning.
	inrefs := refCollectInRefs(rule.Cond)
	b := &refBinding{byDecl: map[*VarDecl]*ActorInfo{}, byRef: map[*ActorRef]*ActorInfo{}}
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
			if refEvalCond(rule.Cond, snap, b, ctxSrv) {
				fired++
				if obs != nil {
					obs.fired(rule, b.anchor.Ref, snap, b, ctxSrv)
				}
				refEmitBehaviors(rule, b, []cluster.MachineID{ctxSrv.ID}, resource, interaction, out, dd)
			}
			return
		}
		ref := refs[i]
		cands := refCandidatesFor(ref, snap, b, inrefs)
		for _, cand := range cands {
			refBind(b, ref, cand, i == 0)
			rec(i + 1)
			refUnbind(b, ref, i == 0)
		}
	}
	rec(0)
	if obs != nil {
		obs.RuleEvaluated(rule, count, fired)
	}
}

func refBind(b *refBinding, ref *ActorRef, a *ActorInfo, first bool) {
	if ref.Decl != nil {
		b.byDecl[ref.Decl] = a
	} else {
		b.byRef[ref] = a
	}
	if first {
		b.anchor = a
	}
}

func refUnbind(b *refBinding, ref *ActorRef, first bool) {
	if ref.Decl != nil {
		delete(b.byDecl, ref.Decl)
	} else {
		delete(b.byRef, ref)
	}
	if first {
		b.anchor = nil
	}
}

// refCollectInRefs lists c's ref(...) atoms that are top-level `and`
// conjuncts: one under an `or` need not hold where the rule fires, so it
// narrows nothing.
func refCollectInRefs(c Cond) []*InRefCond {
	var out []*InRefCond
	var walk func(Cond)
	walk = func(c Cond) {
		switch cond := c.(type) {
		case *AndCond:
			walk(cond.L)
			walk(cond.R)
		case *InRefCond:
			out = append(out, cond)
		}
	}
	walk(c)
	return out
}

// refCandidatesFor narrows a ref's candidates: when the ref is the subject of
// an InRef whose container is already bound, only the container's property
// refs qualify.
func refCandidatesFor(ref *ActorRef, snap *Snapshot, b *refBinding, inrefs []*InRefCond) []*ActorInfo {
	typ := ref.Type()
	for _, ir := range inrefs {
		if !refSameBindingTarget(ir.Sub, ref) {
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

// refSameBindingTarget reports whether two refs bind the same slot.
func refSameBindingTarget(a, b *ActorRef) bool {
	if a == b {
		return true
	}
	return a.Decl != nil && a.Decl == b.Decl
}

func refEvalCond(c Cond, snap *Snapshot, b *refBinding, ctxSrv *ServerInfo) bool {
	switch cond := c.(type) {
	case *TrueCond:
		return true
	case *AndCond:
		return refEvalCond(cond.L, snap, b, ctxSrv) && refEvalCond(cond.R, snap, b, ctxSrv)
	case *OrCond:
		return refEvalCond(cond.L, snap, b, ctxSrv) || refEvalCond(cond.R, snap, b, ctxSrv)
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
		v, ok := refEvalFeature(cond.Feat, cond.Stat, snap, b, ctxSrv)
		return ok && cond.Op.Apply(v, cond.Val)
	}
	return false
}

func refEvalFeature(f Feature, stat Stat, snap *Snapshot, b *refBinding, ctxSrv *ServerInfo) (float64, bool) {
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
		count, bytes := refSumCalls(callee, feat.FName, wantCallerType, wantCaller)
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
				c, _ := refSumCalls(other, feat.FName, wantCallerType, wantCaller)
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

func refSumCalls(a *ActorInfo, method, callerType string, caller actor.Ref) (count, bytes int64) {
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

func refEmitBehaviors(rule *Rule, b *refBinding, violating []cluster.MachineID, resource, interaction bool, out *Intents, dd *refDedup) {
	for _, beh := range rule.Behaviors {
		isRes := beh.Kind().IsResource()
		if isRes && !resource || !isRes && !interaction {
			continue
		}
		switch bh := beh.(type) {
		case *BalanceBeh:
			upper, lower := CondBounds(rule.Cond, bh.Res)
			out.Balance = refMergeBalance(out.Balance, BalanceIntent{
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

// refMergeBalance collapses repeated triggers of the same balance rule into
// one intent with the union of violating servers.
func refMergeBalance(list []BalanceIntent, bi BalanceIntent) []BalanceIntent {
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
