// Package model is the offline scaling-state model checker behind
// plasma-lint -model: it compiles a checked epl.Policy into a finite
// transition system over abstract scaling states (server count ×
// provisioning-pool occupancy × discretized load) closed by a workload
// envelope, and proves reachability properties the per-rule interval
// passes cannot see — oscillation cycles (EPL200), overload dead states
// (EPL201), unreachable rules (EPL202), warm-pool dead ends (EPL203), and
// probabilistic bound violations (EPL210). Every finding carries a
// concrete counterexample path; internal/experiments replays those paths
// through the real simulator to keep the abstraction honest.
package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/lint"
)

// Class is one provisioning class in the envelope's spectrum, in
// fallthrough order (mirrors cluster.ProvSpec).
type Class struct {
	Name string
	Cap  int // initial pool capacity; negative means unlimited
}

// Envelope closes the open system: it bounds the fleet, discretizes the
// offered load, and assigns per-period drift probabilities, turning the
// policy into a finite DTMC. One load unit is 1/PerServer of one server's
// capacity; utilization in a state is 100·load/(servers·PerServer), capped
// at 100 like a real busy fraction.
type Envelope struct {
	MinServers  int // EMR MinServers: scale-in never drops below this
	MaxServers  int // fleet ceiling closing the state space
	InitServers int

	MinLoad  int
	MaxLoad  int
	InitLoad int

	// PerServer is how many load units one server absorbs at 100%.
	PerServer int

	// Drift bounds the per-period load change; DriftProbs[i] is the
	// probability of drift i-Drift (length 2·Drift+1, sums to 1).
	Drift      int
	DriftProbs []float64

	// Classes is the provisioning spectrum in fallthrough order.
	Classes []Class

	// Resources names the server resources the load signal drives;
	// comparisons on other resources evaluate to unknown.
	Resources map[epl.Resource]bool

	// OverloadPerc is the utilization at which a state counts as
	// saturated for EPL201 and the "overload" assert event.
	OverloadPerc float64
}

// maxClasses bounds the provisioning spectrum an envelope may declare; the
// pool occupancy vector is part of the state key. maxDrift bounds the
// per-period load change: an edge stores its drift in an int8.
const (
	maxClasses = 4
	maxDrift   = math.MaxInt8
)

// DefaultEnvelope is the envelope used when the policy declares none:
// the cluster's default provisioning spectrum, a fleet of 4–32 servers
// starting at 4, load 0–24 units starting at 8 (50% on 4 servers), ±1
// unit drift per period, and the EMR's overload line at 90%.
func DefaultEnvelope() Envelope {
	env := Envelope{
		MinServers: 4, MaxServers: 32, InitServers: 4,
		MinLoad: 0, MaxLoad: 24, InitLoad: 8,
		PerServer: 4,
		Drift:     1, DriftProbs: []float64{0.25, 0.5, 0.25},
		Resources:    map[epl.Resource]bool{epl.CPU: true},
		OverloadPerc: 90,
	}
	for _, s := range cluster.DefaultProvSpecs() {
		env.Classes = append(env.Classes, Class{Name: s.Class.String(), Cap: s.Capacity})
	}
	return env
}

func (e *Envelope) validate() error {
	switch {
	case e.MinServers < 1:
		return fmt.Errorf("servers lower bound %d must be at least 1", e.MinServers)
	case e.MaxServers < e.MinServers:
		return fmt.Errorf("servers range %d..%d is empty", e.MinServers, e.MaxServers)
	case e.InitServers < e.MinServers || e.InitServers > e.MaxServers:
		return fmt.Errorf("init servers %d outside %d..%d", e.InitServers, e.MinServers, e.MaxServers)
	case e.MaxLoad < e.MinLoad || e.MinLoad < 0:
		return fmt.Errorf("load range %d..%d is invalid", e.MinLoad, e.MaxLoad)
	case e.InitLoad < e.MinLoad || e.InitLoad > e.MaxLoad:
		return fmt.Errorf("init load %d outside %d..%d", e.InitLoad, e.MinLoad, e.MaxLoad)
	case e.PerServer < 1:
		return fmt.Errorf("perserver %d must be at least 1", e.PerServer)
	case e.Drift < 0 || e.Drift > maxDrift:
		return fmt.Errorf("drift %d outside 0..%d", e.Drift, maxDrift)
	case len(e.DriftProbs) != 2*e.Drift+1:
		return fmt.Errorf("driftprobs needs %d entries for drift %d, got %d", 2*e.Drift+1, e.Drift, len(e.DriftProbs))
	case len(e.Classes) == 0:
		return fmt.Errorf("the provisioning spectrum is empty")
	case len(e.Classes) > maxClasses:
		return fmt.Errorf("at most %d provisioning classes are supported, got %d", maxClasses, len(e.Classes))
	case e.OverloadPerc <= 0 || e.OverloadPerc > 100:
		return fmt.Errorf("overload %g outside (0, 100]", e.OverloadPerc)
	}
	sum := 0.0
	for _, p := range e.DriftProbs {
		if p < 0 {
			return fmt.Errorf("driftprobs entry %g is negative", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("driftprobs sum to %g, want 1", sum)
	}
	seen := map[string]bool{}
	for _, c := range e.Classes {
		if _, ok := cluster.ProvClassFromString(c.Name); !ok {
			return fmt.Errorf("unknown provisioning class %q (have %s)", c.Name, strings.Join(cluster.ProvClassNames(), ", "))
		}
		if seen[c.Name] {
			return fmt.Errorf("provisioning class %q listed twice", c.Name)
		}
		seen[c.Name] = true
	}
	if len(e.Resources) == 0 {
		return fmt.Errorf("no modeled resources")
	}
	return nil
}

// util is the abstract busy fraction at a load level on a fleet size.
func (e *Envelope) util(servers, load int) float64 {
	u := 100 * float64(load) / (float64(servers) * float64(e.PerServer))
	return math.Min(u, 100)
}

func (e *Envelope) clampLoad(load int) int {
	if load < e.MinLoad {
		return e.MinLoad
	}
	if load > e.MaxLoad {
		return e.MaxLoad
	}
	return load
}

// Assert is one parsed //lint:assert annotation: P(event, horizon=H) < p.
type Assert struct {
	Event   string // "overload", "scaleout", or "scalein"
	Horizon int    // periods
	Strict  bool   // true for "<", false for "<="
	Bound   float64
	Line    int
	Col     int
}

func (a Assert) String() string {
	op := "<="
	if a.Strict {
		op = "<"
	}
	return fmt.Sprintf("P(%s, horizon=%d) %s %g", a.Event, a.Horizon, op, a.Bound)
}

// Assert event names.
const (
	EventOverload = "overload"
	EventScaleOut = "scaleout"
	EventScaleIn  = "scalein"
)

const defaultHorizon = 8

// parseAnnotations scans raw policy source for //lint:envelope and
// //lint:assert lines (the EPL lexer strips comments, so annotations ride
// in them), folding envelope keys into env and returning the asserts.
// Malformed annotations become EPL211 diagnostics.
func parseAnnotations(src string, env *Envelope) (asserts []Assert, diags []lint.Diagnostic) {
	bad := func(line, col int, format string, args ...interface{}) {
		diags = append(diags, lint.Diagnostic{
			Code: lint.CodeBadAnnotation, Severity: lint.Error,
			Line: line, Col: col,
			Message: fmt.Sprintf(format, args...),
			Fix:     "see the //lint:envelope / //lint:assert grammar in README.md",
		})
	}
	for i, line := range strings.Split(src, "\n") {
		ln := i + 1
		if idx := strings.Index(line, "lint:envelope"); idx >= 0 && isComment(line, idx) {
			rest := line[idx+len("lint:envelope"):]
			for _, field := range strings.Fields(rest) {
				if err := env.set(field); err != nil {
					bad(ln, idx+1, "bad envelope field %q: %v", field, err)
				}
			}
		}
		if idx := strings.Index(line, "lint:assert"); idx >= 0 && isComment(line, idx) {
			a, err := parseAssert(line[idx+len("lint:assert"):])
			if err != nil {
				bad(ln, idx+1, "bad assert: %v", err)
				continue
			}
			a.Line, a.Col = ln, idx+1
			asserts = append(asserts, a)
		}
	}
	return asserts, diags
}

// isComment reports whether position idx of line sits after a comment
// marker (EPL comments run to end of line, so anything after // or # is
// comment text).
func isComment(line string, idx int) bool {
	head := line[:idx]
	return strings.Contains(head, "//") || strings.Contains(head, "#")
}

// set folds one key=value envelope field into the envelope.
func (e *Envelope) set(field string) error {
	key, val, ok := strings.Cut(field, "=")
	if !ok {
		return fmt.Errorf("want key=value")
	}
	switch key {
	case "servers":
		lo, hi, err := parseRange(val)
		if err != nil {
			return err
		}
		e.MinServers, e.MaxServers = lo, hi
		if e.InitServers < lo {
			e.InitServers = lo
		}
		if e.InitServers > hi {
			e.InitServers = hi
		}
	case "init":
		// init=N or init=N:LOAD
		srv, load, hasLoad := strings.Cut(val, ":")
		n, err := strconv.Atoi(srv)
		if err != nil {
			return fmt.Errorf("bad server count %q", srv)
		}
		e.InitServers = n
		if hasLoad {
			l, err := strconv.Atoi(load)
			if err != nil {
				return fmt.Errorf("bad load level %q", load)
			}
			e.InitLoad = l
		}
	case "load":
		lo, hi, err := parseRange(val)
		if err != nil {
			return err
		}
		e.MinLoad, e.MaxLoad = lo, hi
		if e.InitLoad < lo {
			e.InitLoad = lo
		}
		if e.InitLoad > hi {
			e.InitLoad = hi
		}
	case "perserver":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad count %q", val)
		}
		e.PerServer = n
	case "drift":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 || n > maxDrift {
			return fmt.Errorf("bad drift %q (want 0..%d)", val, maxDrift)
		}
		e.Drift = n
		if len(e.DriftProbs) != 2*n+1 {
			// Uniform until driftprobs overrides.
			e.DriftProbs = make([]float64, 2*n+1)
			for i := range e.DriftProbs {
				e.DriftProbs[i] = 1 / float64(2*n+1)
			}
		}
	case "driftprobs":
		parts := strings.Split(val, ",")
		probs := make([]float64, 0, len(parts))
		for _, p := range parts {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return fmt.Errorf("bad probability %q", p)
			}
			probs = append(probs, f)
		}
		e.DriftProbs = probs
	case "classes":
		var classes []Class
		for _, part := range strings.Split(val, ",") {
			name, capStr, hasCap := strings.Cut(part, ":")
			c := Class{Name: name, Cap: -1}
			if hasCap {
				n, err := strconv.Atoi(capStr)
				if err != nil {
					return fmt.Errorf("bad capacity %q", capStr)
				}
				c.Cap = n
			}
			classes = append(classes, c)
		}
		e.Classes = classes
	case "res":
		res := map[epl.Resource]bool{}
		for _, part := range strings.Split(val, ",") {
			switch part {
			case "cpu":
				res[epl.CPU] = true
			case "mem":
				res[epl.Mem] = true
			case "net":
				res[epl.Net] = true
			default:
				return fmt.Errorf("unknown resource %q", part)
			}
		}
		e.Resources = res
	case "overload":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad percentage %q", val)
		}
		e.OverloadPerc = f
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

func parseRange(s string) (lo, hi int, err error) {
	a, b, ok := strings.Cut(s, "..")
	if !ok {
		return 0, 0, fmt.Errorf("want LO..HI, got %q", s)
	}
	if lo, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("bad lower bound %q", a)
	}
	if hi, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("bad upper bound %q", b)
	}
	return lo, hi, nil
}

// parseAssert parses "P(event, horizon=H) < bound" (horizon optional).
func parseAssert(s string) (Assert, error) {
	a := Assert{Horizon: defaultHorizon}
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "P(") {
		return a, fmt.Errorf("want P(event, horizon=N) < bound")
	}
	close := strings.Index(s, ")")
	if close < 0 {
		return a, fmt.Errorf("unclosed P(")
	}
	for i, part := range strings.Split(s[2:close], ",") {
		part = strings.TrimSpace(part)
		if i == 0 {
			switch part {
			case EventOverload, EventScaleOut, EventScaleIn:
				a.Event = part
			default:
				return a, fmt.Errorf("unknown event %q (want %s, %s, or %s)", part, EventOverload, EventScaleOut, EventScaleIn)
			}
			continue
		}
		val, ok := strings.CutPrefix(part, "horizon=")
		if !ok {
			return a, fmt.Errorf("unknown option %q", part)
		}
		h, err := strconv.Atoi(val)
		if err != nil || h < 1 {
			return a, fmt.Errorf("bad horizon %q", val)
		}
		a.Horizon = h
	}
	tail := strings.TrimSpace(s[close+1:])
	switch {
	case strings.HasPrefix(tail, "<="):
		tail = tail[2:]
	case strings.HasPrefix(tail, "<"):
		a.Strict = true
		tail = tail[1:]
	default:
		return a, fmt.Errorf("want < or <= after P(...)")
	}
	bound, err := strconv.ParseFloat(strings.TrimSpace(tail), 64)
	if err != nil {
		return a, fmt.Errorf("bad bound %q", strings.TrimSpace(tail))
	}
	a.Bound = bound
	return a, nil
}
