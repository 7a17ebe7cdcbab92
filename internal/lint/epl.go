package lint

import (
	"fmt"
	"slices"
	"strings"

	"plasma/internal/epl"
)

// Diagnostic codes of the EPL passes. Conflict warnings from epl.Check use
// the EPL1xx range; the analyzer's own passes use EPL0xx; the scaling-state
// model checker (internal/lint/model, run via plasma-lint -model) emits the
// EPL2xx range. All codes are registered here so the ranges stay disjoint.
const (
	CodeParse      = "EPL000" // source does not parse
	CodeUnsat      = "EPL001" // condition (or a branch of it) can never be true
	CodeOutOfRange = "EPL002" // threshold outside the statistic's domain
	CodeTautology  = "EPL003" // comparison or disjunction that is always true
	CodeFlapping   = "EPL010" // scale-up/scale-down thresholds with no hysteresis band
	CodeShadowed   = "EPL020" // rule contained in an earlier conflicting rule
	CodeUnusedVar  = "EPL030" // rule variable declared but never referenced

	// Model-checker findings (internal/lint/model). Each carries a concrete
	// counterexample path through the abstract scaling-state system.
	CodeOscillation   = "EPL200" // reachable scale-out/scale-in cycle at constant load
	CodeOverloadDead  = "EPL201" // reachable saturated state where no rule can fire
	CodeUnreachRule   = "EPL202" // rule never enabled in any reachable scaling state
	CodePoolDeadEnd   = "EPL203" // provclass preference chain exhausts with no fallthrough
	CodeProbBound     = "EPL210" // //lint:assert probabilistic bound violated
	CodeBadAnnotation = "EPL211" // malformed //lint:envelope or //lint:assert annotation
)

// AnalyzePolicy runs the four passes over the policy — satisfiability,
// flapping, shadowing, unused declarations — and returns the combined
// findings in deterministic order.
func AnalyzePolicy(pol *epl.Policy) []Diagnostic {
	out := satisfiabilityPass(pol)
	out = append(out, flappingPass(pol)...)
	out = append(out, shadowingPass(pol)...)
	out = append(out, unusedPass(pol)...)
	SortDiagnostics(out)
	return out
}

// CheckAndAnalyze is the full front end: epl.Check (semantic errors +
// conflict warnings, converted to diagnostics) followed by the analyzer
// passes. A semantic error is returned as-is; the policy should not be used.
func CheckAndAnalyze(pol *epl.Policy, schema *epl.Schema) ([]Diagnostic, error) {
	warns, err := epl.Check(pol, schema)
	if err != nil {
		return nil, err
	}
	out := make([]Diagnostic, 0, len(warns))
	for _, w := range warns {
		out = append(out, Diagnostic{
			Code: w.Code, Severity: Warning,
			Line: w.Pos.Line, Col: w.Pos.Col,
			Message: w.Msg, Rules: w.Rules,
		})
	}
	out = append(out, AnalyzePolicy(pol)...)
	SortDiagnostics(out)
	return out, nil
}

// ---- pass 1: interval / satisfiability analysis ----

func satisfiabilityPass(pol *epl.Policy) []Diagnostic {
	var out []Diagnostic
	for _, r := range pol.Rules {
		out = append(out, checkAtoms(r)...)
		out = append(out, checkOrTautology(r)...)

		djs, ok := toDNF(r.Cond)
		if !ok {
			continue
		}
		dead := 0
		var firstDead *disjunct
		var deadKey string
		for _, d := range djs {
			if key, bad := d.unsat(); bad {
				dead++
				if firstDead == nil {
					firstDead, deadKey = d, key
				}
			}
		}
		switch {
		case dead == len(djs):
			fi := firstDead.ivs[deadKey]
			out = append(out, Diagnostic{
				Code: CodeUnsat, Severity: Error,
				Line: r.Pos.Line, Col: r.Pos.Col, Rules: []int{r.Index},
				Message: fmt.Sprintf("rule #%d can never fire: no value of %s satisfies its condition (empty interval on %s)",
					r.Index, deadKey, fi.iv),
				Fix: "widen or remove one of the contradictory bounds",
			})
		case dead > 0:
			out = append(out, Diagnostic{
				Code: CodeUnsat, Severity: Warning,
				Line: firstDead.pos.Line, Col: firstDead.pos.Col, Rules: []int{r.Index},
				Message: fmt.Sprintf("rule #%d: %d of %d condition branches can never be true (empty interval on %s)",
					r.Index, dead, len(djs), deadKey),
				Fix: "delete the dead branch or fix its bounds",
			})
		}
	}
	return out
}

// checkAtoms flags individual comparisons whose threshold lies outside the
// statistic's domain (EPL002) or which are satisfied by every value in it
// (EPL003).
func checkAtoms(r *epl.Rule) []Diagnostic {
	var out []Diagnostic
	epl.WalkCmps(r.Cond, func(c *epl.CmpCond) {
		dom := domainFor(c.Stat)
		if c.Stat == epl.Perc && (c.Val < 0 || c.Val > 100) {
			out = append(out, Diagnostic{
				Code: CodeOutOfRange, Severity: Warning,
				Line: c.Pos.Line, Col: c.Pos.Col, Rules: []int{r.Index},
				Message: fmt.Sprintf("threshold %g of %q is outside the perc domain [0, 100]", c.Val, c.String()),
				Fix:     "use a threshold in [0, 100]",
			})
		}
		if c.Stat != epl.Perc && c.Val < 0 {
			out = append(out, Diagnostic{
				Code: CodeOutOfRange, Severity: Warning,
				Line: c.Pos.Line, Col: c.Pos.Col, Rules: []int{r.Index},
				Message: fmt.Sprintf("threshold %g of %q is negative; %s is never below 0", c.Val, c.String(), c.Stat),
				Fix:     "use a non-negative threshold",
			})
		}
		if dom.constrain(c.Op, c.Val).contains(dom) {
			out = append(out, Diagnostic{
				Code: CodeTautology, Severity: Warning,
				Line: c.Pos.Line, Col: c.Pos.Col, Rules: []int{r.Index},
				Message: fmt.Sprintf("comparison %q is true for every %s value in %s", c.String(), c.Stat, dom),
				Fix:     "delete the comparison or tighten its bound",
			})
		}
	})
	return out
}

// checkOrTautology flags disjunctions over the same feature whose interval
// union covers the whole domain — "x > 50 or x < 60" is always true, so
// the rule degenerates to an unconditional behavior.
func checkOrTautology(r *epl.Rule) []Diagnostic {
	var out []Diagnostic
	var walk func(c epl.Cond)
	walk = func(c epl.Cond) {
		switch cond := c.(type) {
		case *epl.AndCond:
			walk(cond.L)
			walk(cond.R)
		case *epl.OrCond:
			walk(cond.L)
			walk(cond.R)
			lKey, lIv, lOK := singleFeature(cond.L)
			rKey, rIv, rOK := singleFeature(cond.R)
			if lOK && rOK && lKey == rKey && covers(lIv.iv, rIv.iv, domainFor(lIv.stat)) {
				out = append(out, Diagnostic{
					Code: CodeTautology, Severity: Warning,
					Line: lIv.pos.Line, Col: lIv.pos.Col, Rules: []int{r.Index},
					Message: fmt.Sprintf("disjunction over %s is always true: %s and %s cover the whole domain %s",
						lKey, lIv.iv, rIv.iv, domainFor(lIv.stat)),
					Fix: "leave a gap between the bounds (hysteresis band)",
				})
			}
		}
	}
	walk(r.Cond)
	return out
}

// singleFeature reduces a condition to one feature interval when it
// constrains exactly one feature and nothing else.
func singleFeature(c epl.Cond) (string, featIv, bool) {
	djs, ok := toDNF(c)
	if !ok || len(djs) != 1 {
		return "", featIv{}, false
	}
	d := djs[0]
	if len(d.ivs) != 1 || len(d.atoms) != 0 {
		return "", featIv{}, false
	}
	for key, fi := range d.ivs {
		return key, fi, true
	}
	return "", featIv{}, false
}

// ---- pass 2: flapping detection ----

// trigger is one server-utilization threshold extracted from a rule
// condition: an upper trigger ("perc > 80") fires the rule on high load
// (provision class), a lower trigger ("perc < 50") on low load
// (decommission class).
type trigger struct {
	rule int
	res  epl.Resource
	val  float64
	pos  epl.Pos
}

// flappingPass pairs provision-class triggers with decommission-class
// triggers on the same server resource, for rules whose resource behaviors
// affect overlapping actor types, and warns when the scale-up threshold
// does not exceed the scale-down threshold: with no hysteresis band, any
// load between the two fires both directions every period — the
// oscillation the paper's elasticity period is meant to damp.
func flappingPass(pol *epl.Policy) []Diagnostic {
	var ups, downs []trigger
	types := map[int]map[string]bool{}
	for _, r := range pol.Rules {
		if !r.HasResourceBehavior() {
			continue
		}
		types[r.Index] = resourceTypes(r)
		epl.WalkCmps(r.Cond, func(c *epl.CmpCond) {
			rf, ok := c.Feat.(*epl.ResFeature)
			if !ok || !rf.Server || c.Stat != epl.Perc {
				return
			}
			t := trigger{rule: r.Index, res: rf.Res, val: c.Val, pos: c.Pos}
			switch c.Op {
			case epl.GT, epl.GE:
				ups = append(ups, t)
			case epl.LT, epl.LE:
				downs = append(downs, t)
			}
		})
	}

	var out []Diagnostic
	seen := map[[2]int]bool{}
	for _, up := range ups {
		for _, down := range downs {
			if up.res != down.res {
				continue
			}
			if !overlap(types[up.rule], types[down.rule]) {
				continue
			}
			key := [2]int{up.rule, down.rule}
			if seen[key] {
				continue
			}
			band := up.val - down.val
			if band > 0 {
				continue
			}
			seen[key] = true
			where := fmt.Sprintf("rules #%d and #%d", up.rule, down.rule)
			rules := []int{min(up.rule, down.rule), max(up.rule, down.rule)}
			if up.rule == down.rule {
				where, rules = fmt.Sprintf("rule #%d", up.rule), rules[:1]
			}
			out = append(out, Diagnostic{
				Code: CodeFlapping, Severity: Warning,
				Line: up.pos.Line, Col: up.pos.Col,
				Rules: rules,
				Message: fmt.Sprintf("%s flap on server.%s.perc: scale-up threshold %g minus scale-down threshold %g leaves no hysteresis band (%g)",
					where, up.res, up.val, down.val, band),
				Fix: fmt.Sprintf("separate the thresholds, e.g. scale up above %g and down below %g", up.val, up.val-10),
			})
		}
	}
	return out
}

// resourceTypes is the set of actor types a rule's resource behaviors act
// on, as the behaviors name them.
func resourceTypes(r *epl.Rule) map[string]bool {
	set := map[string]bool{}
	for _, p := range r.Placements() {
		if p.Kind == epl.KindBalance || p.Kind == epl.KindReserve {
			set[p.A] = true
		}
	}
	// provclass steers the fleet-wide scale-out decision, so its triggers
	// pair with every resource rule's: a provclass-guarded scale-up
	// threshold can flap against any scale-down threshold.
	if r.ProvClassChain() != nil {
		set[epl.AnyType] = true
	}
	return set
}

// overlap reports whether two type sets intersect, with AnyType matching
// every type.
func overlap(a, b map[string]bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if a[epl.AnyType] || b[epl.AnyType] {
		return true
	}
	for t := range a {
		if b[t] {
			return true
		}
	}
	return false
}

// ---- pass 3: rule subsumption / shadowing ----

// shadowingPass flags a rule whose condition region is contained in an
// earlier rule's region while their behaviors demand contradictory
// placements for overlapping actor types: whenever the later rule fires,
// the earlier one fires too, and the runtime resolves the clash by
// priority every single period.
func shadowingPass(pol *epl.Policy) []Diagnostic {
	type ruleDNF struct {
		djs []*disjunct
		ok  bool
	}
	dnfs := make([]ruleDNF, len(pol.Rules))
	for i, r := range pol.Rules {
		djs, ok := toDNF(r.Cond)
		dnfs[i] = ruleDNF{djs, ok}
	}

	var out []Diagnostic
	for j := 1; j < len(pol.Rules); j++ {
		if !dnfs[j].ok {
			continue
		}
		for i := 0; i < j; i++ {
			if !dnfs[i].ok {
				continue
			}
			if !regionContained(dnfs[j].djs, dnfs[i].djs) {
				continue
			}
			desc, clash := behaviorsClash(pol.Rules[i], pol.Rules[j])
			if !clash {
				continue
			}
			rj := pol.Rules[j]
			out = append(out, Diagnostic{
				Code: CodeShadowed, Severity: Warning,
				Line: rj.Pos.Line, Col: rj.Pos.Col,
				Rules: []int{i, j},
				Message: fmt.Sprintf("rule #%d is shadowed by earlier rule #%d: its condition is contained in rule #%d's and their behaviors conflict (%s)",
					j, i, i, desc),
				Fix: "reorder the rules, disjoin their conditions, or drop one behavior",
			})
		}
	}
	return out
}

// regionContained reports whether every disjunct of inner lies inside some
// disjunct of outer — inner's condition implies outer's.
func regionContained(inner, outer []*disjunct) bool {
	for _, di := range inner {
		held := false
		for _, do := range outer {
			if di.containedIn(do) {
				held = true
				break
			}
		}
		if !held {
			return false
		}
	}
	return true
}

// behaviorsClash reports whether two rules' behaviors demand contradictory
// placements for overlapping types — one of epl's §4.3 conflict classes —
// or contradictory provisioning preferences.
func behaviorsClash(ri, rj *epl.Rule) (string, bool) {
	if desc, ok := epl.Clash(ri, rj); ok {
		return desc, true
	}
	// Two provclass chains in the same region fight over the scale-out
	// preference order: the EMR rebuilds it from fired rules every period,
	// so the shadowed rule's chain is overridden (or overrides) silently.
	a, b := ri.ProvClassChain(), rj.ProvClassChain()
	if a != nil && b != nil && !slices.Equal(a, b) {
		return fmt.Sprintf("provclass preference {%s} vs {%s}",
			strings.Join(a, ", "), strings.Join(b, ", ")), true
	}
	return "", false
}

// ---- pass 4: unused declarations ----

// unusedPass flags rule variables that are declared (Type(v)) but never
// referenced again by any condition atom or behavior: the declaration
// could be an anonymous pattern, and an unused name usually means the
// author meant to constrain something and did not.
func unusedPass(pol *epl.Policy) []Diagnostic {
	var out []Diagnostic
	for _, r := range pol.Rules {
		uses := map[*epl.VarDecl]int{}
		epl.WalkRefs(r, func(ref *epl.ActorRef) {
			// A use is a ref bound to the decl other than the declaring
			// occurrence itself (which carries the type name).
			if ref.Decl != nil && ref.TypeName == "" {
				uses[ref.Decl]++
			}
		})
		for _, v := range r.Vars {
			if uses[v] > 0 {
				continue
			}
			out = append(out, Diagnostic{
				Code: CodeUnusedVar, Severity: Info,
				Line: v.Pos.Line, Col: v.Pos.Col, Rules: []int{r.Index},
				Message: fmt.Sprintf("rule #%d declares variable %q but never references it", r.Index, v.Name),
				Fix:     fmt.Sprintf("use the anonymous pattern %s instead of %s(%s)", v.Type, v.Type, v.Name),
			})
		}
	}
	return out
}
