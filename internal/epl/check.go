package epl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"plasma/internal/cluster"
)

// Schema describes the application program's actor classes (Fig. 3.I) for
// semantic checking of a policy against it.
type Schema struct {
	Actors map[string]*ActorSchema
}

// ActorSchema declares one actor class: its functions (message handlers)
// and reference properties. PLASMA "currently treats actor subtypes as
// distinct types from their parent types" (§3.2), and so does this
// compiler: a rule's type name matches exactly the actors of that type.
type ActorSchema struct {
	Name      string   `json:"name"`
	Functions []string `json:"functions"`
	Props     []string `json:"props"`
}

// NewSchema builds a schema from actor class declarations.
func NewSchema(classes ...*ActorSchema) *Schema {
	s := &Schema{Actors: make(map[string]*ActorSchema)}
	for _, c := range classes {
		s.Actors[c.Name] = c
	}
	return s
}

// ReadSchema loads a schema file of the CLIs' format,
//
//	{"actors": [{"name": "Folder", "functions": ["open"], "props": ["files"]}]}
//
// and returns nil for the empty path (no schema: Check skips name checks).
func ReadSchema(path string) (*Schema, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSchema(path, data)
}

// parseSchema decodes the schema file name holds. An unknown key, data
// after the object, a null entry, a class without a name or a name
// declared twice is a bad schema.
func parseSchema(name string, data []byte) (*Schema, error) {
	var f struct {
		Actors []*ActorSchema `json:"actors"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&f)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the schema object")
	}
	if err != nil {
		return nil, fmt.Errorf("epl: bad schema %s: %v", name, err)
	}
	s := &Schema{Actors: make(map[string]*ActorSchema, len(f.Actors))}
	for i, c := range f.Actors {
		switch {
		case c == nil:
			return nil, fmt.Errorf("epl: bad schema %s: actor %d is null", name, i)
		case c.Name == "":
			return nil, fmt.Errorf("epl: bad schema %s: actor %d has no name", name, i)
		case s.Actors[c.Name] != nil:
			return nil, fmt.Errorf("epl: bad schema %s: actor %q declared twice", name, c.Name)
		}
		s.Actors[c.Name] = c
	}
	return s, nil
}

// Class declares an actor class for NewSchema.
func Class(name string, funcs []string, props []string) *ActorSchema {
	return &ActorSchema{Name: name, Functions: funcs, Props: props}
}

// Conflict warning codes (EPL1xx), stable for tests and tooling. The
// analyzer passes in internal/lint use the EPL0xx range.
const (
	CodeColocateSeparate = "EPL101" // same pair both colocated and separated
	CodePinBalance       = "EPL102" // pinned type subject to balance
	CodePinReserve       = "EPL103" // pinned type subject to reserve
	CodeReserveBalance   = "EPL104" // reserved type subject to balance
	CodeBalanceColocate  = "EPL105" // balanced type colocated with another
)

// Warning is a non-fatal diagnostic, primarily from conflict detection
// (§4.3: "PLASMA's compiler detects conflicting rules for the same actor
// type, and issues warnings"). Code is a stable diagnostic code; Rules
// lists every rule index involved in the conflict.
type Warning struct {
	Code  string
	Pos   Pos
	Msg   string
	Rules []int
}

func (w Warning) String() string {
	if w.Code == "" {
		return fmt.Sprintf("epl:%s: warning: %s", w.Pos, w.Msg)
	}
	return fmt.Sprintf("epl:%s: warning[%s]: %s", w.Pos, w.Code, w.Msg)
}

// Check validates a policy against a schema (nil schema skips name checks)
// and returns conflict warnings. It returns the first semantic error found.
// It does not modify the policy.
func Check(pol *Policy, schema *Schema) ([]Warning, error) {
	for _, r := range pol.Rules {
		if err := checkRule(r, schema); err != nil {
			return nil, err
		}
	}
	return detectConflicts(pol), nil
}

func checkRule(r *Rule, schema *Schema) error {
	// Every variable must have a concrete or any type.
	for _, v := range r.Vars {
		if err := checkType(v.Type, v.Pos, schema); err != nil {
			return err
		}
	}
	if err := checkCond(r.Cond, schema); err != nil {
		return err
	}
	for _, b := range r.Behaviors {
		switch beh := b.(type) {
		case *BalanceBeh:
			for _, t := range beh.Types {
				if err := checkType(t, beh.Pos, schema); err != nil {
					return err
				}
				// balance takes type names, not variables (§3.2).
				if r.VarByName(t) != nil {
					return errAt(beh.Pos, "balance takes actor types, not variables (%q is a variable)", t)
				}
			}
		case *ReserveBeh:
			if err := checkActorRef(beh.Actor, schema); err != nil {
				return err
			}
		case *ColocateBeh:
			if err := checkActorRef(beh.A, schema); err != nil {
				return err
			}
			if err := checkActorRef(beh.B, schema); err != nil {
				return err
			}
		case *SeparateBeh:
			if err := checkActorRef(beh.A, schema); err != nil {
				return err
			}
			if err := checkActorRef(beh.B, schema); err != nil {
				return err
			}
		case *PinBeh:
			if err := checkActorRef(beh.Actor, schema); err != nil {
				return err
			}
		case *ProvClassBeh:
			for _, c := range beh.Classes {
				if _, ok := cluster.ProvClassFromString(c); !ok {
					return errAt(beh.Pos, "unknown provisioning class %q (expected one of %s)",
						c, strings.Join(cluster.ProvClassNames(), ", "))
				}
			}
		}
	}
	return nil
}

func checkCond(c Cond, schema *Schema) error {
	switch cond := c.(type) {
	case *TrueCond:
		return nil
	case *AndCond:
		if err := checkCond(cond.L, schema); err != nil {
			return err
		}
		return checkCond(cond.R, schema)
	case *OrCond:
		if err := checkCond(cond.L, schema); err != nil {
			return err
		}
		return checkCond(cond.R, schema)
	case *InRefCond:
		if err := checkActorRef(cond.Sub, schema); err != nil {
			return err
		}
		if err := checkActorRef(cond.Container, schema); err != nil {
			return err
		}
		if schema != nil {
			ct := cond.Container.Type()
			if as := schema.Actors[ct]; as != nil && !slices.Contains(as.Props, cond.Prop) {
				return errAt(cond.Pos, "actor type %q has no property %q", ct, cond.Prop)
			}
		}
		return nil
	case *CmpCond:
		switch feat := cond.Feat.(type) {
		case *ResFeature:
			if !feat.Server {
				if err := checkActorRef(feat.Actor, schema); err != nil {
					return err
				}
			}
			// Resource features expose utilization percentages and sizes,
			// not counts ("not all statistics apply to all features").
			if cond.Stat == Count {
				return errAt(cond.Pos, "statistic 'count' does not apply to resource feature %s", feat)
			}
		case *CallFeature:
			if !feat.Client {
				if err := checkActorRef(feat.Caller, schema); err != nil {
					return err
				}
			}
			if err := checkActorRef(feat.Callee, schema); err != nil {
				return err
			}
			if schema != nil {
				ct := feat.Callee.Type()
				if as := schema.Actors[ct]; as != nil && !slices.Contains(as.Functions, feat.FName) {
					return errAt(feat.Pos, "actor type %q has no function %q", ct, feat.FName)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("epl: unknown condition node %T", c)
}

func checkType(name string, pos Pos, schema *Schema) error {
	if name == AnyType || schema == nil {
		return nil
	}
	if schema.Actors[name] == nil {
		return errAt(pos, "unknown actor type %q", name)
	}
	return nil
}

func checkActorRef(ref *ActorRef, schema *Schema) error {
	t := ref.Type()
	if t == "" {
		return errAt(ref.Pos, "unresolved actor reference %q", ref.VarName)
	}
	return checkType(t, ref.Pos, schema)
}

// Placement is one placement behavior's claim on one actor type, or — for
// colocate and separate — on one unordered type pair (A <= B). Types are
// the names the behavior writes; each claims only actors of that type.
type Placement struct {
	Kind BehaviorKind
	A, B string // B is set only for colocate and separate
	Rule int
	Pos  Pos
}

// Placements is the rule's placement summary, what the §4.3 conflict
// classes compare: one Placement per type (or type pair) each of its
// colocate, separate, pin, balance and reserve behaviors names.
func (r *Rule) Placements() []Placement {
	var out []Placement
	add := func(k BehaviorKind, pos Pos, a, b string) {
		if b != "" {
			a, b = min(a, b), max(a, b)
		}
		out = append(out, Placement{Kind: k, A: a, B: b, Rule: r.Index, Pos: pos})
	}
	for _, b := range r.Behaviors {
		switch beh := b.(type) {
		case *ColocateBeh:
			add(KindColocate, beh.Pos, beh.A.Type(), beh.B.Type())
		case *SeparateBeh:
			add(KindSeparate, beh.Pos, beh.A.Type(), beh.B.Type())
		case *PinBeh:
			add(KindPin, beh.Pos, beh.Actor.Type(), "")
		case *BalanceBeh:
			for _, t := range beh.Types {
				add(KindBalance, beh.Pos, t, "")
			}
		case *ReserveBeh:
			add(KindReserve, beh.Pos, beh.Actor.Type(), "")
		}
	}
	return out
}

// conflictClass is one of §4.3's conflict classes: an x behavior and a y
// behavior that can demand contradictory placements of one actor type.
type conflictClass struct {
	code string
	x, y BehaviorKind
	msg  string // Check's warning: the type names clashed over, then the rule list
}

// conflictClasses is the one table of them, in code order. Check warns at
// every x occurrence; Clash, which the lint shadowing pass reads, names a
// class "x vs y".
var conflictClasses = []conflictClass{
	{CodeColocateSeparate, KindColocate, KindSeparate,
		"types %q and %q are both colocated and separated (rules %s); runtime priority decides"},
	{CodePinBalance, KindPin, KindBalance,
		"type %q is pinned but also subject to balance (rules %s); pinned actors will not be balanced"},
	{CodePinReserve, KindPin, KindReserve,
		"type %q is pinned but also subject to reserve (rules %s); reserve outranks pin: a pinned actor moves to its dedicated server and stays pinned there"},
	{CodeReserveBalance, KindReserve, KindBalance,
		"type %q is both reserved and balanced (rules %s); reserve outranks balance: a reserved actor is not balanced, and balance packs nothing onto a dedicated server"},
	{CodeBalanceColocate, KindBalance, KindColocate,
		"type %q is balanced but also colocated with %q (rules %s); balance may break colocation"},
}

// each calls f for every x in xs and y in ys of the class's two kinds that
// claim the same actor type, with what they clash over: x's pair when both
// are pairs (equal pairs only); x's type when both are single types, AnyType
// matching every type; x's type and its partner when y is a pair naming x's
// type.
func (c conflictClass) each(xs, ys []Placement, f func(x, y Placement, over [2]string)) {
	for _, x := range xs {
		if x.Kind != c.x {
			continue
		}
		for _, y := range ys {
			if y.Kind != c.y {
				continue
			}
			switch {
			case x.B != "":
				if x.A == y.A && x.B == y.B {
					f(x, y, [2]string{x.A, x.B})
				}
			case y.B == "":
				if x.A == y.A || x.A == AnyType || y.A == AnyType {
					f(x, y, [2]string{x.A})
				}
			case x.A == y.A:
				f(x, y, [2]string{x.A, y.B})
			case x.A == y.B:
				f(x, y, [2]string{x.A, y.A})
			}
		}
	}
}

// detectConflicts flags rule combinations that can demand contradictory
// placements for the same actor type. These are warnings: the runtime
// resolves surviving conflicts by priority (§4.3). Every occurrence of a
// conflicting behavior is reported, once per type it clashes over, each
// warning carrying every rule index on either side of that clash.
func detectConflicts(pol *Policy) []Warning {
	var all []Placement
	for _, r := range pol.Rules {
		all = append(all, r.Placements()...)
	}
	var warns []Warning
	for _, c := range conflictClasses {
		type clash struct {
			at    []Pos // the x occurrences
			rules map[int]bool
		}
		byOver := map[[2]string]*clash{}
		c.each(all, all, func(x, y Placement, over [2]string) {
			cl := byOver[over]
			if cl == nil {
				cl = &clash{rules: map[int]bool{}}
				byOver[over] = cl
			}
			cl.rules[x.Rule], cl.rules[y.Rule] = true, true
			if !slices.Contains(cl.at, x.Pos) {
				cl.at = append(cl.at, x.Pos)
			}
		})
		for over, cl := range byOver {
			rules := make([]int, 0, len(cl.rules))
			for r := range cl.rules {
				rules = append(rules, r)
			}
			sort.Ints(rules)
			args := []any{over[0]}
			if over[1] != "" {
				args = append(args, over[1])
			}
			msg := fmt.Sprintf(c.msg, append(args, RuleList(rules))...)
			for _, pos := range cl.at {
				warns = append(warns, Warning{Code: c.code, Pos: pos, Rules: rules, Msg: msg})
			}
		}
	}
	sort.Slice(warns, func(i, j int) bool {
		a, b := warns[i], warns[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return a.Pos.Col < b.Pos.Col
	})
	return warns
}

// Clash names the first conflict class, in code order, under which rules a
// and b place one actor type contradictorily, and what over:
// `pin vs balance of type "Worker"`.
func Clash(a, b *Rule) (string, bool) {
	pa, pb := a.Placements(), b.Placements()
	for _, c := range conflictClasses {
		for _, side := range [2][2][]Placement{{pa, pb}, {pb, pa}} {
			var first [2]string
			found := false
			c.each(side[0], side[1], func(_, _ Placement, over [2]string) {
				if !found || over[0] < first[0] || over[0] == first[0] && over[1] < first[1] {
					first, found = over, true
				}
			})
			if !found {
				continue
			}
			what := fmt.Sprintf("type %q", first[0])
			if first[1] != "" {
				what = fmt.Sprintf("types %q and %q", first[0], first[1])
			}
			return c.x.String() + " vs " + c.y.String() + " of " + what, true
		}
	}
	return "", false
}

// RuleList renders rule indices for messages: "#0, #2".
func RuleList(rules []int) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = "#" + strconv.Itoa(r)
	}
	return strings.Join(parts, ", ")
}
