// Package epl implements PLASMA's elasticity programming language: the
// declarative actor-condition-behavior rule language of Fig. 3.II, with a
// lexer, recursive-descent parser, semantic checker (including compile-time
// conflict detection, §4.3), and a rule evaluator that turns profiling
// snapshots into elasticity intents.
package epl

import (
	"fmt"
	"strconv"
	"strings"
)

// Pos is a source position for diagnostics.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Resource is the res production: cpu | mem | net.
type Resource int

// Resource kinds.
const (
	CPU Resource = iota
	Mem
	Net
)

func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Mem:
		return "mem"
	case Net:
		return "net"
	}
	return "res?"
}

// Stat is the stat production: count | size | perc.
type Stat int

// Stat kinds.
const (
	Count Stat = iota
	Size
	Perc
)

func (s Stat) String() string {
	switch s {
	case Count:
		return "count"
	case Size:
		return "size"
	case Perc:
		return "perc"
	}
	return "stat?"
}

// CmpOp is the comp production: < | > | >= | <=.
type CmpOp int

// Comparison operators.
const (
	LT CmpOp = iota
	GT
	LE
	GE
)

func (o CmpOp) String() string {
	switch o {
	case LT:
		return "<"
	case GT:
		return ">"
	case LE:
		return "<="
	case GE:
		return ">="
	}
	return "op?"
}

// Apply evaluates "x op v".
func (o CmpOp) Apply(x, v float64) bool {
	switch o {
	case LT:
		return x < v
	case GT:
		return x > v
	case LE:
		return x <= v
	case GE:
		return x >= v
	}
	return false
}

// AnyType is the special actor type matching all actors.
const AnyType = "any"

// VarDecl is an inline actor variable declaration like Folder(fo).
type VarDecl struct {
	Name string // variable name, e.g. "fo"
	Type string // actor type, possibly AnyType
	Pos  Pos
}

// ActorRef references actors in a rule: a typed anonymous pattern
// ("Folder"), an inline declaration ("Folder(fo)"), or a bare variable use
// ("fo"). After binding, Decl points at the declaring VarDecl for variable
// uses and inline declarations.
type ActorRef struct {
	TypeName string // type as written ("" for bare variable uses)
	VarName  string // variable as written ("" for anonymous patterns)
	Pos      Pos

	Decl *VarDecl // set by the binder when this ref names a variable
}

// Type reports the actor type this ref ranges over (after binding).
func (a *ActorRef) Type() string {
	if a.Decl != nil {
		return a.Decl.Type
	}
	return a.TypeName
}

func (a *ActorRef) String() string {
	switch {
	case a.TypeName != "" && a.VarName != "":
		return a.TypeName + "(" + a.VarName + ")"
	case a.TypeName != "":
		return a.TypeName
	default:
		return a.VarName
	}
}

// Cond is a rule condition.
type Cond interface {
	condNode()
	String() string
}

// TrueCond is the trivial condition.
type TrueCond struct{ Pos Pos }

func (*TrueCond) condNode()      {}
func (*TrueCond) String() string { return "true" }

// AndCond is conjunction.
type AndCond struct{ L, R Cond }

func (*AndCond) condNode() {}
func (c *AndCond) String() string {
	return c.L.String() + " and " + c.R.String()
}

// OrCond is disjunction.
type OrCond struct{ L, R Cond }

func (*OrCond) condNode() {}
func (c *OrCond) String() string {
	return c.L.String() + " or " + c.R.String()
}

// CmpCond compares a feature statistic against a bound: feat.stat comp val.
type CmpCond struct {
	Feat Feature
	Stat Stat
	Op   CmpOp
	Val  float64
	Pos  Pos
}

func (*CmpCond) condNode() {}
func (c *CmpCond) String() string {
	// No exponent: the lexer reads a number as digits and dots only, and %g
	// would print a million as 1e+06.
	return fmt.Sprintf("%s.%s %s %s", c.Feat, c.Stat, c.Op, strconv.FormatFloat(c.Val, 'f', -1, 64))
}

// InRefCond selects actors referenced by a property of another actor:
// actor in ref(actor'.pname).
type InRefCond struct {
	Sub       *ActorRef
	Container *ActorRef
	Prop      string
	Pos       Pos
}

func (*InRefCond) condNode() {}
func (c *InRefCond) String() string {
	return fmt.Sprintf("%s in ref(%s.%s)", c.Sub, c.Container, c.Prop)
}

// Feature is a runtime feature a condition can measure.
type Feature interface {
	featNode()
	String() string
}

// ResFeature measures resource usage of an entity ([f-ra]/[f-rs]):
// actor.res or server.res.
type ResFeature struct {
	Server bool      // true for the server entity
	Actor  *ActorRef // set when Server is false
	Res    Resource
	Pos    Pos
}

func (*ResFeature) featNode() {}
func (f *ResFeature) String() string {
	if f.Server {
		return "server." + f.Res.String()
	}
	return f.Actor.String() + "." + f.Res.String()
}

// CallFeature measures interaction ([f-ia]): cllr.call(actor.fname).
type CallFeature struct {
	Client bool      // true when the caller is the client keyword
	Caller *ActorRef // set when Client is false
	Callee *ActorRef
	FName  string
	Pos    Pos
}

func (*CallFeature) featNode() {}
func (f *CallFeature) String() string {
	c := "client"
	if !f.Client {
		c = f.Caller.String()
	}
	return fmt.Sprintf("%s.call(%s.%s)", c, f.Callee, f.FName)
}

// Behavior is an elasticity behavior (the beh production).
type Behavior interface {
	behNode()
	Kind() BehaviorKind
	String() string
}

// BehaviorKind discriminates behaviors and carries their rule class.
type BehaviorKind int

// Behavior kinds.
const (
	KindBalance BehaviorKind = iota
	KindReserve
	KindColocate
	KindSeparate
	KindPin
	KindProvClass
)

func (k BehaviorKind) String() string {
	switch k {
	case KindBalance:
		return "balance"
	case KindReserve:
		return "reserve"
	case KindColocate:
		return "colocate"
	case KindSeparate:
		return "separate"
	case KindPin:
		return "pin"
	case KindProvClass:
		return "provclass"
	}
	return "beh?"
}

// IsResource reports whether the behavior yields a resource elasticity rule
// [r-r] (handled by GEMs) rather than an interaction rule [r-i] (LEMs).
// provclass is GEM-side: it steers the scale-out decision, which only GEMs
// make.
func (k BehaviorKind) IsResource() bool {
	return k == KindBalance || k == KindReserve || k == KindProvClass
}

// BalanceBeh is balance({atype...}, res).
type BalanceBeh struct {
	Types []string
	Res   Resource
	Pos   Pos
}

func (*BalanceBeh) behNode()           {}
func (*BalanceBeh) Kind() BehaviorKind { return KindBalance }
func (b *BalanceBeh) String() string {
	return fmt.Sprintf("balance({%s}, %s)", strings.Join(b.Types, ", "), b.Res)
}

// ReserveBeh is reserve(actor, res).
type ReserveBeh struct {
	Actor *ActorRef
	Res   Resource
	Pos   Pos
}

func (*ReserveBeh) behNode()           {}
func (*ReserveBeh) Kind() BehaviorKind { return KindReserve }
func (b *ReserveBeh) String() string   { return fmt.Sprintf("reserve(%s, %s)", b.Actor, b.Res) }

// ColocateBeh is colocate(actor, actor).
type ColocateBeh struct {
	A, B *ActorRef
	Pos  Pos
}

func (*ColocateBeh) behNode()           {}
func (*ColocateBeh) Kind() BehaviorKind { return KindColocate }
func (b *ColocateBeh) String() string   { return fmt.Sprintf("colocate(%s, %s)", b.A, b.B) }

// SeparateBeh is separate(actor, actor).
type SeparateBeh struct {
	A, B *ActorRef
	Pos  Pos
}

func (*SeparateBeh) behNode()           {}
func (*SeparateBeh) Kind() BehaviorKind { return KindSeparate }
func (b *SeparateBeh) String() string   { return fmt.Sprintf("separate(%s, %s)", b.A, b.B) }

// PinBeh is pin(actor).
type PinBeh struct {
	Actor *ActorRef
	Pos   Pos
}

func (*PinBeh) behNode()           {}
func (*PinBeh) Kind() BehaviorKind { return KindPin }
func (b *PinBeh) String() string   { return fmt.Sprintf("pin(%s)", b.Actor) }

// ProvClassBeh is provclass({class, ...}): when the rule fires, scale-out
// prefers the named provisioning classes (warm, container, vm) in order,
// falling to the remaining spectrum when a pool is exhausted.
type ProvClassBeh struct {
	Classes []string
	Pos     Pos
}

func (*ProvClassBeh) behNode()           {}
func (*ProvClassBeh) Kind() BehaviorKind { return KindProvClass }
func (b *ProvClassBeh) String() string {
	return fmt.Sprintf("provclass({%s})", strings.Join(b.Classes, ", "))
}

// Rule is one elasticity rule: cond => beh; beh; ... ;
type Rule struct {
	Index     int // position in the policy, 0-based
	Cond      Cond
	Behaviors []Behavior
	Vars      []*VarDecl // inline variable declarations, in source order
	Pos       Pos
}

// HasResourceBehavior reports whether any behavior is [r-r]: GEMs evaluate
// such rules (Table 2's getResRules).
func (r *Rule) HasResourceBehavior() bool {
	for _, b := range r.Behaviors {
		if b.Kind().IsResource() {
			return true
		}
	}
	return false
}

// HasInteractionBehavior reports whether any behavior is [r-i]: LEMs
// evaluate such rules (Table 2's getActRules).
func (r *Rule) HasInteractionBehavior() bool {
	for _, b := range r.Behaviors {
		if !b.Kind().IsResource() {
			return true
		}
	}
	return false
}

// VarByName returns the rule variable with the given name, or nil.
func (r *Rule) VarByName(name string) *VarDecl {
	for _, v := range r.Vars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

func (r *Rule) String() string {
	behs := make([]string, len(r.Behaviors))
	for i, b := range r.Behaviors {
		behs[i] = b.String()
	}
	return r.Cond.String() + " => " + strings.Join(behs, "; ") + ";"
}

// Policy is a parsed EPL program: a set of rules.
type Policy struct {
	Rules  []*Rule
	Source string
}

func (p *Policy) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
