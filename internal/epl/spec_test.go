package epl

// spec_test.go is EPL's meaning written out literally (§3): a rule fires on
// every binding in the plain cross product of its BindingRefs' OfType (Index
// drops a row with the zero ref, as that ID names no actor), in that order,
// whose condition holds as written on the first bound actor's
// server; a rule with no binding refs is checked on each listed server. An
// evaluation gives one intent per balance or provclass behavior, reserved or
// pinned actor, and colocated or separated pair. Nothing is pruned, joined
// or pooled: eval_diff_test.go and FuzzEvaluate hold Evaluate to it.

import (
	"slices"

	"plasma/internal/actor"
)

// spec is one literal evaluation: the current rule's binding refs and the
// actor bound to each; the intents, the firings in order (as RuleFired sees
// them), and each applied rule's counts (as RuleEvaluated sees them).
type spec struct {
	snap                  *Snapshot
	resource, interaction bool
	refs                  []*ActorRef
	acts                  []*ActorInfo
	once                  map[any]bool // the intents given: a behavior, or a kind and an actor pair
	in                    *Intents
	fires                 []firing
	evals                 []ruleEval
}

// specEvaluate evaluates pol against snap as EPL defines it.
func specEvaluate(pol *Policy, snap *Snapshot, resource, interaction bool) *spec {
	s := &spec{snap: snap, resource: resource, interaction: interaction, once: map[any]bool{}, in: &Intents{}}
	for _, rule := range pol.Rules {
		if !(resource && rule.HasResourceBehavior() || interaction && rule.HasInteractionBehavior()) {
			continue
		}
		s.refs = rule.BindingRefs()
		ev := ruleEval{rule: rule.Index}
		if len(s.refs) == 0 {
			for _, srv := range snap.Servers {
				ev.examined++
				s.check(rule, srv, actor.Ref{}, &ev)
			}
		} else {
			s.bind(rule, 0, &ev)
		}
		s.evals = append(s.evals, ev)
	}
	return s
}

// bind binds refs[i:] to every combination of actors of their types, and
// checks each complete binding on its first actor's server.
func (s *spec) bind(rule *Rule, i int, ev *ruleEval) {
	if i == len(s.refs) {
		ev.examined++
		if srv := s.snap.Server(s.acts[0].Server); srv != nil {
			s.check(rule, srv, s.acts[0].Ref, ev)
		}
		return
	}
	for _, a := range s.snap.OfType(s.refs[i].Type()) {
		s.acts = append(s.acts[:i], a)
		s.bind(rule, i+1, ev)
	}
}

// check fires rule on srv if its condition holds: it records the firing
// with every comparison's value and applies each behavior.
func (s *spec) check(rule *Rule, srv *ServerInfo, anchor actor.Ref, ev *ruleEval) {
	if !s.cond(rule.Cond, srv) {
		return
	}
	ev.fired++
	f := firing{rule: rule.Index, anchor: anchor, srv: srv.ID}
	WalkCmps(rule.Cond, func(c *CmpCond) {
		if v, ok := s.feature(c.Feat, c.Stat, srv); ok {
			f.values = append(f.values, FeatureValue{Feature: c.String(), Value: v})
		}
	})
	s.fires = append(s.fires, f)
	out := s.in
	for _, beh := range rule.Behaviors {
		if isRes := beh.Kind().IsResource(); isRes && !s.resource || !isRes && !s.interaction {
			continue
		}
		switch bh := beh.(type) {
		case *BalanceBeh:
			if s.first(bh) {
				upper, lower := CondBounds(rule.Cond, bh.Res)
				out.Balance = append(out.Balance, BalanceIntent{Rule: rule, Types: bh.Types, Res: bh.Res, Upper: upper, Lower: lower})
			}
		case *ProvClassBeh:
			if s.first(bh) {
				out.ProvClass = append(out.ProvClass, ProvClassIntent{Rule: rule, Classes: bh.Classes})
			}
		case *ReserveBeh:
			if a := s.lookup(bh.Actor).Ref; s.first([3]any{KindReserve, a, a}) {
				out.Reserve = append(out.Reserve, ReserveIntent{Rule: rule, Actor: a, Res: bh.Res})
			}
		case *PinBeh:
			if a := s.lookup(bh.Actor).Ref; s.first([3]any{KindPin, a, a}) {
				out.Pin = append(out.Pin, PinIntent{Rule: rule, Actor: a})
			}
		case *ColocateBeh:
			if x, y := s.lookup(bh.A).Ref, s.lookup(bh.B).Ref; x != y && s.first([3]any{KindColocate, x, y}) {
				out.Colocate = append(out.Colocate, PairIntent{Rule: rule, A: x, B: y})
			}
		case *SeparateBeh:
			if x, y := s.lookup(bh.A).Ref, s.lookup(bh.B).Ref; x != y && s.first([3]any{KindSeparate, x, y}) {
				out.Separate = append(out.Separate, PairIntent{Rule: rule, A: x, B: y})
			}
		}
	}
}

// first reports whether this evaluation has not yet given k's intent, and
// from now on that it has.
func (s *spec) first(k any) bool {
	n := len(s.once)
	s.once[k] = true
	return len(s.once) > n
}

// lookup is the actor bound to ref: refs naming one variable share a slot.
func (s *spec) lookup(ref *ActorRef) *ActorInfo {
	for i, r := range s.refs {
		if r == ref || r.Decl != nil && r.Decl == ref.Decl {
			return s.acts[i]
		}
	}
	return nil
}

func (s *spec) cond(c Cond, srv *ServerInfo) bool {
	switch c := c.(type) {
	case *TrueCond:
		return true
	case *AndCond:
		return s.cond(c.L, srv) && s.cond(c.R, srv)
	case *OrCond:
		return s.cond(c.L, srv) || s.cond(c.R, srv)
	case *InRefCond:
		return slices.Contains(s.lookup(c.Container).Props[c.Prop], s.lookup(c.Sub).Ref)
	case *CmpCond:
		v, ok := s.feature(c.Feat, c.Stat, srv)
		return ok && c.Op.Apply(v, c.Val)
	}
	return false
}

// feature is a comparison's left-hand value in the current binding: a
// resource of the server or of an actor, or the calls the callee received
// under a method from the clients or from the caller (perc: as a share of
// those every actor on the callee's server received).
func (s *spec) feature(f Feature, stat Stat, srv *ServerInfo) (float64, bool) {
	switch f := f.(type) {
	case *ResFeature:
		switch {
		case f.Server:
			return srv.Res(f.Res), true
		case stat == Size:
			return s.lookup(f.Actor).ResSize(f.Res), true
		}
		return s.lookup(f.Actor).ResOf(f.Res), true
	case *CallFeature:
		callee := s.lookup(f.Callee)
		var caller actor.Ref
		if !f.Client {
			caller = s.lookup(f.Caller).Ref
		}
		var count, bytes, total int64
		for _, a := range s.snap.Actors {
			for _, cs := range a.Calls {
				if a.Server == callee.Server && cs.Method == f.FName && (f.Client && cs.CallerType == actor.ClientCaller || !f.Client && cs.Caller == caller) {
					total += cs.Count
					if a == callee {
						count, bytes = count+cs.Count, bytes+cs.Bytes
					}
				}
			}
		}
		switch stat {
		case Count:
			return float64(count), true
		case Size:
			return float64(bytes), true
		}
		return float64(count) / float64(max(total, 1)) * 100, true // total ≥ count: 0 when none
	}
	return 0, false
}
