package model

import (
	"plasma/internal/epl"
)

// State is one abstract scaling state: fleet size, discretized load
// level, and remaining provisioning-pool capacity per envelope class
// (-1 for unlimited pools, which never decrement).
type State struct {
	Servers int16
	Load    int16
	Pools   [maxClasses]int16
}

// action flags on a transition. Out and In can both be set on one edge:
// the EMR runs tryScaleOut and tryScaleIn in the same period when
// different rules demand both (the drained victim is an up server, the
// provisioned one is still booting), so fleet size is unchanged but the
// cluster churns a machine per period.
type action uint8

const (
	actOut action = 1 << iota
	actIn
)

// edge is one DTMC transition: drift δ happens during the period, the EMR
// observes utilization at the new load, and fired rules scale the fleet.
type edge struct {
	drift int8
	prob  float64
	act   action
	class int8 // envelope class slot a scale-out drew from; -1 when none
	dead  bool // scale-out demanded, fleet below max, every pool exhausted
	util  float64
	fired []int // must-fired rule indices at the post-drift load
	to    int   // successor state id
}

// ctl is the policy's control decision at a (servers, load) point,
// mirroring the EMR planner over the uniform-load abstraction: every
// server carries the same utilization, so per-server classification
// (over the rule's upper bound / under its lower bound) collapses to
// allOver/allUnder, and balance produces no blocking move actions
// (planDeficitFill requires a ≥15-point spread).
type ctl struct {
	util    float64
	fired   []int
	may     []bool // per rule: not provably disabled (three-valued eval)
	wantOut bool
	wantIn  bool
	pref    []int // class slot order scale-out walks (provPref + spectrum)
}

type ctlKey struct{ servers, load int16 }

// maxStates caps the reachability exploration; past it the system is
// marked truncated and unreachability findings are suppressed.
const maxStates = 200000

// System is the compiled finite transition system.
type System struct {
	Env Envelope
	Pol *epl.Policy

	states []State
	edges  [][]edge // edges[id][driftIdx], driftIdx = δ + Env.Drift
	index  map[State]int

	// BFS tree for counterexample prefixes: parent[id] is the state the
	// BFS discovered id from, via edges[parent[id]][parentEdge[id]].
	parent     []int
	parentEdge []int

	ctls       map[ctlKey]*ctl
	mayEnabled []bool // per rule: enabled in some reachable state
	truncated  bool
}

// Compile builds the reachable transition system of a checked policy
// under the envelope (which must validate).
func Compile(pol *epl.Policy, env Envelope) *System {
	sys := &System{
		Env:        env,
		Pol:        pol,
		index:      map[State]int{},
		ctls:       map[ctlKey]*ctl{},
		mayEnabled: make([]bool, len(pol.Rules)),
	}
	init := State{Servers: int16(env.InitServers), Load: int16(env.InitLoad)}
	for i := range init.Pools {
		init.Pools[i] = -1
	}
	for i, c := range env.Classes {
		init.Pools[i] = int16(c.Cap)
		if c.Cap < 0 {
			init.Pools[i] = -1
		}
	}
	sys.intern(init, -1, -1)

	for id := 0; id < len(sys.states); id++ {
		s := sys.states[id]
		edges := make([]edge, 0, len(env.DriftProbs))
		for di, p := range env.DriftProbs {
			drift := di - env.Drift
			load := int16(env.clampLoad(int(s.Load) + drift))
			c := sys.control(s.Servers, load)
			// Rule enablement is recorded at evaluation points — the EMR
			// evaluates at the post-drift load on the pre-action fleet, so
			// a rule whose firing immediately shifts the state away (e.g.
			// a scale-out guard) is still reachable.
			for i, m := range c.may {
				if m {
					sys.mayEnabled[i] = true
				}
			}
			e := edge{
				drift: int8(drift), prob: p, class: -1,
				util: c.util, fired: c.fired,
			}
			next := State{Servers: s.Servers, Load: load, Pools: s.Pools}
			if c.wantOut {
				if int(next.Servers) < env.MaxServers {
					slot := -1
					for _, sl := range c.pref {
						if next.Pools[sl] != 0 {
							slot = sl
							break
						}
					}
					if slot < 0 {
						e.dead = true
					} else {
						if next.Pools[slot] > 0 {
							next.Pools[slot]--
						}
						next.Servers++
						e.act |= actOut
						e.class = int8(slot)
					}
				}
			}
			// Scale-in drains an up server; the machine a same-period
			// scale-out provisioned is still booting, so the gate is the
			// pre-action fleet size (UpCount in the EMR).
			if c.wantIn && int(s.Servers) > env.MinServers {
				next.Servers--
				e.act |= actIn
			}
			e.to = sys.intern(next, id, di)
			edges = append(edges, e)
		}
		sys.edges = append(sys.edges, edges)
		if sys.truncated {
			// Close the system: states discovered past the cap keep
			// self-loop stubs so analyses stay total.
			for id2 := len(sys.edges); id2 < len(sys.states); id2++ {
				sys.edges = append(sys.edges, sys.selfLoops(id2))
			}
			break
		}
	}
	return sys
}

func (sys *System) intern(s State, fromID, viaEdge int) int {
	if id, ok := sys.index[s]; ok {
		return id
	}
	if len(sys.states) >= maxStates {
		sys.truncated = true
		return fromID // collapse overflow onto the discovering state
	}
	id := len(sys.states)
	sys.index[s] = id
	sys.states = append(sys.states, s)
	sys.parent = append(sys.parent, fromID)
	sys.parentEdge = append(sys.parentEdge, viaEdge)
	return id
}

func (sys *System) selfLoops(id int) []edge {
	s := sys.states[id]
	c := sys.control(s.Servers, s.Load)
	edges := make([]edge, 0, len(sys.Env.DriftProbs))
	for di, p := range sys.Env.DriftProbs {
		edges = append(edges, edge{
			drift: int8(di - sys.Env.Drift), prob: p, class: -1,
			util: c.util, fired: c.fired, to: id,
		})
	}
	return edges
}

// control computes (memoized) the policy's decision at a fleet size and
// load level.
func (sys *System) control(servers, load int16) *ctl {
	key := ctlKey{servers, load}
	if c, ok := sys.ctls[key]; ok {
		return c
	}
	env := &sys.Env
	c := &ctl{
		util: env.util(int(servers), int(load)),
		may:  make([]bool, len(sys.Pol.Rules)),
	}
	var chain []string
	for i, r := range sys.Pol.Rules {
		tv := sys.evalCond(r.Cond, c.util)
		c.may[i] = tv != triFalse
		if tv != triTrue || len(r.BindingRefs()) > 0 {
			// The rule needs per-actor bindings or unknown features; the
			// abstraction cannot prove it fires.
			continue
		}
		c.fired = append(c.fired, i)
		for _, b := range r.Behaviors {
			bb, ok := b.(*epl.BalanceBeh)
			if !ok || !env.Resources[bb.Res] {
				continue
			}
			// The band planBalance holds servers in, defaulted as it is.
			upper, lower := epl.Band(epl.CondBounds(r.Cond, bb.Res))
			if c.util > upper {
				c.wantOut = true
			} else if c.util < lower {
				c.wantIn = true
			}
		}
		chain = append(chain, r.ProvClassChain()...)
	}
	c.pref = sys.classOrder(chain)
	sys.ctls[key] = c
	return c
}

// classOrder maps a fired provclass preference chain onto envelope class
// slots and appends the remaining spectrum, mirroring the EMR's provOrder
// (preference first, spectrum-order fallthrough, no slot twice).
func (sys *System) classOrder(chain []string) []int {
	order := make([]int, 0, len(sys.Env.Classes))
	seen := [maxClasses]bool{}
	add := func(slot int) {
		if slot >= 0 && !seen[slot] {
			seen[slot] = true
			order = append(order, slot)
		}
	}
	for _, name := range chain {
		add(sys.slotOf(name))
	}
	for i := range sys.Env.Classes {
		add(i)
	}
	return order
}

func (sys *System) slotOf(name string) int {
	for i, c := range sys.Env.Classes {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ---- three-valued condition evaluation ----

type tri int8

const (
	triFalse tri = iota
	triUnknown
	triTrue
)

// evalCond evaluates a condition at utilization u with Kleene logic:
// server-resource comparisons on modeled resources are concrete, every
// other feature (actor resources, call statistics, reference membership)
// is unknown.
func (sys *System) evalCond(c epl.Cond, u float64) tri {
	switch cond := c.(type) {
	case *epl.TrueCond:
		return triTrue
	case *epl.AndCond:
		return triAnd(sys.evalCond(cond.L, u), sys.evalCond(cond.R, u))
	case *epl.OrCond:
		return triOr(sys.evalCond(cond.L, u), sys.evalCond(cond.R, u))
	case *epl.CmpCond:
		rf, ok := cond.Feat.(*epl.ResFeature)
		if !ok || !rf.Server || cond.Stat != epl.Perc || !sys.Env.Resources[rf.Res] {
			return triUnknown
		}
		if cond.Op.Apply(u, cond.Val) {
			return triTrue
		}
		return triFalse
	default:
		return triUnknown
	}
}

func triAnd(a, b tri) tri {
	if a == triFalse || b == triFalse {
		return triFalse
	}
	if a == triTrue && b == triTrue {
		return triTrue
	}
	return triUnknown
}

func triOr(a, b tri) tri {
	if a == triTrue || b == triTrue {
		return triTrue
	}
	if a == triFalse && b == triFalse {
		return triFalse
	}
	return triUnknown
}
