package epl

// meta.go exports the condition/behavior metadata offline analyzers need.
// The lint interval passes and the scaling-state model checker
// (internal/lint/model) compile policies into abstract transition systems;
// they must see exactly the thresholds and preference chains the EMR's
// planner acts on, so these are the evaluator's own helpers, not copies.

import "math"

// WalkCmps calls f for every comparison atom in c, in syntactic order.
func WalkCmps(c Cond, f func(*CmpCond)) {
	switch cond := c.(type) {
	case *AndCond:
		WalkCmps(cond.L, f)
		WalkCmps(cond.R, f)
	case *OrCond:
		WalkCmps(cond.L, f)
		WalkCmps(cond.R, f)
	case *CmpCond:
		f(cond)
	}
}

// WalkRefs calls f for every actor reference in rule r: the condition's in
// syntactic order (a ref(...) container before its subject), then the
// behaviors'.
func WalkRefs(r *Rule, f func(*ActorRef)) {
	visit := func(refs ...*ActorRef) {
		for _, ref := range refs {
			if ref != nil {
				f(ref)
			}
		}
	}
	var walk func(c Cond)
	walk = func(c Cond) {
		switch cond := c.(type) {
		case *AndCond:
			walk(cond.L)
			walk(cond.R)
		case *OrCond:
			walk(cond.L)
			walk(cond.R)
		case *InRefCond:
			visit(cond.Container, cond.Sub)
		case *CmpCond:
			switch feat := cond.Feat.(type) {
			case *ResFeature:
				if !feat.Server {
					visit(feat.Actor)
				}
			case *CallFeature:
				visit(feat.Callee)
				if !feat.Client {
					visit(feat.Caller)
				}
			}
		}
	}
	walk(r.Cond)
	for _, b := range r.Behaviors {
		switch beh := b.(type) {
		case *ReserveBeh:
			visit(beh.Actor)
		case *ColocateBeh:
			visit(beh.A, beh.B)
		case *SeparateBeh:
			visit(beh.A, beh.B)
		case *PinBeh:
			visit(beh.Actor)
		}
	}
}

// CondBounds scans a condition for server-resource comparisons on res and
// derives the upper (from > / >=) and lower (from < / <=) thresholds,
// NaN when absent. It is the extraction Evaluate runs when a balance rule
// fires, so offline models read exactly the bounds the EMR's planner gets.
func CondBounds(c Cond, res Resource) (upper, lower float64) {
	upper, lower = math.NaN(), math.NaN()
	WalkCmps(c, func(cond *CmpCond) {
		rf, ok := cond.Feat.(*ResFeature)
		if !ok || !rf.Server || rf.Res != res || cond.Stat != Perc {
			return
		}
		switch cond.Op {
		case GT, GE:
			if math.IsNaN(upper) || cond.Val < upper {
				upper = cond.Val
			}
		case LT, LE:
			if math.IsNaN(lower) || cond.Val > lower {
				lower = cond.Val
			}
		}
	})
	return upper, lower
}

// DefaultUpper is the utilization a balance rule sheds at when its
// condition states no upper bound. The EMR also admits no transfer that
// would push a target past it.
const DefaultUpper = 85.0

// Band is balance's threshold defaulting over the bounds CondBounds
// returns: no upper bound means DefaultUpper, and no lower bound means the
// upper, an empty band. The EMR's planner and the offline model both take a
// balance rule's band from here.
func Band(upper, lower float64) (float64, float64) {
	if math.IsNaN(upper) {
		upper = DefaultUpper
	}
	if math.IsNaN(lower) {
		lower = upper
	}
	return upper, lower
}

// ProvClassChain returns the provisioning-class preference chain the
// rule's provclass behaviors demand, in behavior order (nil when the rule
// has none). Class names are as written; Check has already validated them
// against the cluster's spectrum.
func (r *Rule) ProvClassChain() []string {
	var chain []string
	for _, b := range r.Behaviors {
		if pb, ok := b.(*ProvClassBeh); ok {
			chain = append(chain, pb.Classes...)
		}
	}
	return chain
}

// BindingRefs reports the actor references the evaluator must bind to
// concrete actors before the rule can fire: the rule's variables plus
// implicit existential variables for anonymous typed actor patterns, ordered
// so that InRef containers are enumerated before their subjects (which
// enables pruning candidate sets through reference properties). A rule with
// binding refs never fires on server-wide state alone, so abstract models
// that track no individual actors cannot prove it enabled — only possibly
// enabled.
func (r *Rule) BindingRefs() []*ActorRef {
	var refs []*ActorRef
	seenDecl := map[*VarDecl]bool{}
	WalkRefs(r, func(ref *ActorRef) {
		if ref.Decl != nil {
			if seenDecl[ref.Decl] {
				return
			}
			seenDecl[ref.Decl] = true
		}
		refs = append(refs, ref)
	})
	return refs
}
