package model

import (
	"fmt"
	"sort"
	"strings"

	"plasma/internal/epl"
	"plasma/internal/lint"
)

// Step is one tick of a counterexample path: the load drifts, the EMR
// observes utilization on the pre-action fleet, fired rules act.
type Step struct {
	Tick    int     `json:"tick"`
	Drift   int     `json:"drift"`
	Load    int     `json:"load"`    // post-drift load level
	Servers int     `json:"servers"` // fleet size the EMR observes
	Util    float64 `json:"util"`    // utilization the rules evaluate
	Fired   []int   `json:"fired,omitempty"`
	Action  string  `json:"action,omitempty"` // "scale-out(warm)", "scale-in", both, or ""
	After   int     `json:"after"`            // fleet size after the action
}

// Finding is one model-checker diagnostic plus its concrete
// counterexample path (nil for findings with no witness, like EPL202).
type Finding struct {
	lint.Diagnostic
	Path []Step `json:"path,omitempty"`
	// CycleFrom is the index in Path where the repeating cycle begins,
	// -1 when the path is a plain prefix.
	CycleFrom int `json:"cycle_from"`
}

// Check runs the model checker over a checked policy. The envelope
// defaults to DefaultEnvelope overridden by //lint:envelope annotations
// in the policy source; //lint:assert annotations become EPL210 checks.
func Check(pol *epl.Policy) []Finding {
	env := DefaultEnvelope()
	asserts, diags := parseAnnotations(pol.Source, &env)
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, Finding{Diagnostic: d, CycleFrom: -1})
	}
	if err := env.validate(); err != nil {
		findings = append(findings, Finding{Diagnostic: lint.Diagnostic{
			Code: lint.CodeBadAnnotation, Severity: lint.Error,
			Line: 1, Col: 1,
			Message: fmt.Sprintf("workload envelope does not validate: %v", err),
			Fix:     "fix the //lint:envelope annotation",
		}, CycleFrom: -1})
		return findings
	}
	sys := Compile(pol, env)
	findings = append(findings, sys.checkOscillation()...)
	findings = append(findings, sys.checkOverloadDead()...)
	findings = append(findings, sys.checkUnreachable()...)
	findings = append(findings, sys.checkPoolDeadEnd()...)
	for _, a := range asserts {
		findings = append(findings, sys.checkAssert(a)...)
	}
	return findings
}

// Diagnostics strips the paths off findings for callers that only rank
// severity.
func Diagnostics(findings []Finding) []lint.Diagnostic {
	out := make([]lint.Diagnostic, len(findings))
	for i, f := range findings {
		out[i] = f.Diagnostic
	}
	return out
}

// ---- EPL200: oscillation ----

// checkOscillation looks for a reachable cycle in the zero-drift
// subgraph (constant load) whose edges include both a scale-out and a
// scale-in: the fleet provisions and drains forever with no workload
// change. Zero drift makes each state's successor unique, so the
// subgraph is a functional graph walked with the standard three-color
// scan.
func (sys *System) checkOscillation() []Finding {
	zero := sys.Env.Drift // edge index of δ=0
	color := make([]uint8, len(sys.states))
	pos := make([]int, len(sys.states))
	for start := range sys.states {
		if color[start] != 0 {
			continue
		}
		var path []int
		v := start
		for color[v] == 0 {
			color[v] = 1
			pos[v] = len(path)
			path = append(path, v)
			v = sys.edges[v][zero].to
		}
		if color[v] == 1 {
			// New cycle: path[pos[v]:] loops back to v.
			cycle := path[pos[v]:]
			var acts action
			for _, id := range cycle {
				acts |= sys.edges[id][zero].act
			}
			if acts&actOut != 0 && acts&actIn != 0 {
				for _, id := range path {
					color[id] = 2
				}
				return []Finding{sys.oscillationFinding(cycle)}
			}
		}
		for _, id := range path {
			color[id] = 2
		}
	}
	return nil
}

func (sys *System) oscillationFinding(cycle []int) Finding {
	zero := sys.Env.Drift
	// Rules responsible: everything fired on the cycle's scaling edges.
	ruleSet := map[int]bool{}
	outs, ins := 0, 0
	for _, id := range cycle {
		e := sys.edges[id][zero]
		if e.act == 0 {
			continue
		}
		if e.act&actOut != 0 {
			outs++
		}
		if e.act&actIn != 0 {
			ins++
		}
		for _, r := range e.fired {
			ruleSet[r] = true
		}
	}
	rules := sortedKeys(ruleSet)
	entry := cycle[0]
	prefix := sys.pathTo(entry)
	steps := sys.renderPath(prefix)
	cycleFrom := len(steps)
	loop := make([][2]int, 0, len(cycle))
	for _, id := range cycle {
		loop = append(loop, [2]int{id, zero})
	}
	steps = append(steps, sys.renderEdges(loop, len(steps))...)

	s := sys.states[entry]
	pos := sys.rulePos(rules)
	return Finding{
		Diagnostic: lint.Diagnostic{
			Code: lint.CodeOscillation, Severity: lint.Warning,
			Line: pos.Line, Col: pos.Col, Rules: rules,
			Message: fmt.Sprintf(
				"policy oscillates: at constant load %d (%.1f%% util on %d servers) a reachable %d-period cycle scales out %d× and in %d× forever",
				s.Load, sys.Env.util(int(s.Servers), int(s.Load)), s.Servers, len(cycle), outs, ins),
			Fix: "widen the hysteresis band so one server's utilization shift cannot cross both thresholds",
		},
		Path:      steps,
		CycleFrom: cycleFrom,
	}
}

// ---- EPL201: overload dead state ----

// checkOverloadDead reports the first reachable state at or above the
// envelope's overload line where no rule is even possibly enabled: the
// cluster is saturated and the policy provably cannot react.
func (sys *System) checkOverloadDead() []Finding {
	for id, s := range sys.states {
		u := sys.Env.util(int(s.Servers), int(s.Load))
		if u < sys.Env.OverloadPerc {
			continue
		}
		c := sys.control(s.Servers, s.Load)
		enabled := false
		for _, m := range c.may {
			if m {
				enabled = true
				break
			}
		}
		if enabled {
			continue
		}
		steps := sys.renderPath(sys.pathTo(id))
		return []Finding{{
			Diagnostic: lint.Diagnostic{
				Code: lint.CodeOverloadDead, Severity: lint.Warning,
				Line: 1, Col: 1,
				Message: fmt.Sprintf(
					"overload dead state: %d servers saturate at %.1f%% util (load %d, overload line %g%%) and no rule's condition can be true there",
					s.Servers, u, s.Load, sys.Env.OverloadPerc),
				Fix: "add a scale-out rule covering the saturated band (e.g. server.cpu.perc > 90)",
			},
			Path:      steps,
			CycleFrom: -1,
		}}
	}
	return nil
}

// ---- EPL202: unreachable rule ----

// checkUnreachable reports rules that are disabled in every reachable
// scaling state — the cross-rule generalization of EPL001: the condition
// may be satisfiable in isolation, yet the fleet dynamics keep
// utilization outside it forever.
func (sys *System) checkUnreachable() []Finding {
	if sys.truncated {
		return nil // unexplored states could enable the rule
	}
	var out []Finding
	for i, enabled := range sys.mayEnabled {
		if enabled {
			continue
		}
		r := sys.Pol.Rules[i]
		out = append(out, Finding{
			Diagnostic: lint.Diagnostic{
				Code: lint.CodeUnreachRule, Severity: lint.Warning,
				Line: r.Pos.Line, Col: r.Pos.Col, Rules: []int{i},
				Message: fmt.Sprintf(
					"rule #%d can never fire in any reachable scaling state (%d..%d servers, load %d..%d): its utilization guard is outside the reachable range",
					i, sys.Env.MinServers, sys.Env.MaxServers, sys.Env.MinLoad, sys.Env.MaxLoad),
				Fix: "retune the thresholds to the envelope, or delete the rule",
			},
			CycleFrom: -1,
		})
	}
	return out
}

// ---- EPL203: warm-pool dead end ----

// checkPoolDeadEnd reports the first reachable state where scale-out is
// demanded, the fleet is below the envelope ceiling, and every
// provisioning pool the preference chain (plus spectrum fallthrough) can
// reach is exhausted — the elastic promise silently stalls.
func (sys *System) checkPoolDeadEnd() []Finding {
	for id := range sys.states {
		for ei, e := range sys.edges[id] {
			if !e.dead {
				continue
			}
			s := sys.states[id]
			var pools []string
			for i, c := range sys.Env.Classes {
				left := "∞"
				if s.Pools[i] >= 0 {
					left = fmt.Sprintf("%d", s.Pools[i])
				}
				pools = append(pools, fmt.Sprintf("%s:%s", c.Name, left))
			}
			steps := sys.renderPath(sys.pathTo(id))
			steps = append(steps, sys.renderEdges([][2]int{{id, ei}}, len(steps))...)
			pos := sys.rulePos(e.fired)
			return []Finding{{
				Diagnostic: lint.Diagnostic{
					Code: lint.CodePoolDeadEnd, Severity: lint.Warning,
					Line: pos.Line, Col: pos.Col, Rules: e.fired,
					Message: fmt.Sprintf(
						"provisioning dead end: scale-out demanded at %d servers (%.1f%% util) but every pool is exhausted (%s) with no unlimited fallthrough",
						s.Servers, e.util, strings.Join(pools, ", ")),
					Fix: "add an unlimited class (container or vm) to the spectrum, or grow the finite pool",
				},
				Path:      steps,
				CycleFrom: -1,
			}}
		}
	}
	return nil
}

// ---- path construction and rendering ----

// pathTo returns the BFS-tree edge sequence init → id as (state, edge
// index) pairs.
func (sys *System) pathTo(id int) [][2]int {
	var rev [][2]int
	for v := id; sys.parent[v] >= 0; v = sys.parent[v] {
		rev = append(rev, [2]int{sys.parent[v], sys.parentEdge[v]})
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (sys *System) renderPath(hops [][2]int) []Step {
	return sys.renderEdges(hops, 0)
}

// renderEdges turns (state, edge-index) hops into display steps.
func (sys *System) renderEdges(hops [][2]int, tick0 int) []Step {
	steps := make([]Step, 0, len(hops))
	for i, hop := range hops {
		s := sys.states[hop[0]]
		e := sys.edges[hop[0]][hop[1]]
		load := sys.Env.clampLoad(int(s.Load) + int(e.drift))
		after := int(sys.states[e.to].Servers)
		steps = append(steps, Step{
			Tick:    tick0 + i,
			Drift:   int(e.drift),
			Load:    load,
			Servers: int(s.Servers),
			Util:    e.util,
			Fired:   e.fired,
			Action:  actionLabel(e, sys.Env),
			After:   after,
		})
	}
	return steps
}

func actionLabel(e edge, env Envelope) string {
	var parts []string
	if e.act&actOut != 0 {
		class := "?"
		if e.class >= 0 {
			class = env.Classes[e.class].Name
		}
		parts = append(parts, "scale-out("+class+")")
	}
	if e.act&actIn != 0 {
		parts = append(parts, "scale-in")
	}
	if e.dead {
		parts = append(parts, "scale-out STALLED (pools exhausted)")
	}
	return strings.Join(parts, " + ")
}

// FormatPath renders a finding's counterexample tick by tick for
// plasma-lint -model -explain.
func FormatPath(f Finding) string {
	if len(f.Path) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, st := range f.Path {
		if f.CycleFrom >= 0 && i == f.CycleFrom {
			fmt.Fprintf(&sb, "    ---- cycle repeats forever from here ----\n")
		}
		act := st.Action
		if act == "" {
			act = "steady"
		}
		fired := ""
		if len(st.Fired) > 0 {
			fired = " fires " + epl.RuleList(st.Fired) + " →"
		}
		fmt.Fprintf(&sb, "    t%02d: load %d (Δ%+d), %d servers at %.1f%% —%s %s",
			st.Tick, st.Load, st.Drift, st.Servers, st.Util, fired, act)
		if st.After != st.Servers {
			fmt.Fprintf(&sb, " → %d servers", st.After)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// rulePos anchors a finding at its first responsible rule (1:1 when the
// finding is policy-wide).
func (sys *System) rulePos(rules []int) epl.Pos {
	if len(rules) == 0 {
		return epl.Pos{Line: 1, Col: 1}
	}
	return sys.Pol.Rules[rules[0]].Pos
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
