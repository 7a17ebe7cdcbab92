package emr

import (
	"math"
	"sort"
	"strconv"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/trace"
)

// corroborated is the adjustment protocol's poll (§4.2): the requesting GEM
// broadcasts to all other GEMs; each that is alive and heard from a server
// this period replies whether its own view is similar. It reports whether a
// majority, the requester included, agrees.
func (m *Manager) corroborated(g *gem, similar func(*gem) bool) (agree, voters int, ok bool) {
	agree, voters = 1, 1
	for _, other := range m.gems {
		if other == g || other.failed || other.heard == 0 {
			continue
		}
		voters++
		if similar(other) {
			agree++
		}
	}
	return agree, voters, agree*2 > voters
}

// tryScaleOut grows the fleet when a majority of GEMs see all of their
// servers overloaded too.
func (m *Manager) tryScaleOut(g *gem, need int, parent uint64) {
	agree, voters, ok := m.corroborated(g, func(o *gem) bool { return o.allOver })
	if !ok {
		return
	}
	// Provision up to the demand, capped per period, counting machines
	// already booting toward it (the boot pipeline is the cooldown).
	const maxPerPeriod = 4
	if need > maxPerPeriod {
		need = maxPerPeriod
	}
	if m.tr.Enabled() {
		m.tr.Emit(trace.Record{Kind: trace.KindScaleOut, Parent: parent,
			Tick: int32(m.Stats.Ticks), Server: -1, Target: -1, Rule: -1,
			Value: float64(need), Detail: "agree=" + strconv.Itoa(agree) + "/" + strconv.Itoa(voters)})
	}
	for m.booting < need {
		mach := m.provisionNext()
		if mach == nil {
			return
		}
		m.booting++
		m.Stats.ScaleOuts++
	}
}

// provisionNext boots one machine for scale-out, walking the provisioning
// spectrum in class preference order — the policy's provclass rules first,
// then spec order — and falling to the next class when a warm pool is
// exhausted. The outcome callback decrements the booting counter on success
// AND failure: a machine crashed or decommissioned mid-boot (or whose boot
// retries are exhausted) must not suppress scale-out forever.
func (m *Manager) provisionNext() *cluster.Machine {
	done := func(_ *cluster.Machine, ok bool) {
		m.booting--
		if !ok {
			m.Stats.FailedProvisions++
		}
	}
	for _, i := range m.provOrder() {
		spec := &m.provSpecs[i]
		if !spec.Available() {
			continue
		}
		if mach := m.C.ProvisionClass(m.Cfg.InstanceType, spec, done); mach != nil {
			return mach
		}
	}
	return nil
}

// provOrder indexes m.provSpecs in preference order: classes the policy's
// provclass rules named (in rule order) first, then the rest in spec
// order.
func (m *Manager) provOrder() []int {
	order := make([]int, 0, len(m.provSpecs))
	used := make([]bool, len(m.provSpecs))
	for _, pc := range m.provPref {
		for i := range m.provSpecs {
			if !used[i] && m.provSpecs[i].Class == pc {
				used[i] = true
				order = append(order, i)
			}
		}
	}
	for i := range m.provSpecs {
		if !used[i] {
			order = append(order, i)
		}
	}
	return order
}

// tryScaleIn drains the emptiest of the GEM's servers after a corroborating
// majority vote, migrating its actors away; the server is decommissioned
// once empty (next tick).
func (m *Manager) tryScaleIn(g *gem, snap *epl.Snapshot, parent uint64) {
	if m.C.UpCount() <= m.Cfg.MinServers {
		return
	}
	for _, s := range m.servers {
		if s.draining {
			return // one drain at a time
		}
	}
	if _, _, ok := m.corroborated(g, func(o *gem) bool { return o.allUnder }); !ok {
		return
	}

	// Pick the scoped server with the fewest actors (cheapest to drain).
	victim := cluster.MachineID(-1)
	fewest := math.MaxInt32
	for i := range g.last {
		id := cluster.MachineID(i)
		if !m.inScope(g, id, m.Stats.Ticks) || !m.servers[id].owner.Zero() {
			continue
		}
		n := m.RT.NumActorsOn(id)
		if n < fewest {
			fewest = n
			victim = id
		}
	}
	if victim < 0 {
		return
	}
	vs := m.servers[victim]
	vs.draining = true
	m.Stats.PlannedActions += fewest
	scaleInID := m.tr.Emit(trace.Record{Kind: trace.KindScaleIn, Parent: parent,
		Tick: int32(m.Stats.Ticks), Server: -1, Target: int32(victim), Rule: -1,
		Value: float64(fewest)})

	// Evacuate: spread the victim's actors over the least-loaded remaining
	// servers. Drain migrations bypass the admission query (the server is
	// going away), but still respect pins.
	targets := m.evacTargets(victim, snap)
	if len(targets) == 0 {
		vs.draining = false
		return
	}
	for i, ref := range m.RT.ActorsOn(victim) {
		if m.RT.Pinned(ref) {
			// A pinned actor blocks the drain entirely.
			vs.draining = false
			return
		}
		m.RT.MigrateTraced(ref, targets[i%len(targets)], scaleInID, nil)
	}
}

// evacTargets lists candidate servers for drain migrations, least loaded
// first.
func (m *Manager) evacTargets(victim cluster.MachineID, snap *epl.Snapshot) []cluster.MachineID {
	var out []srvLoad
	for _, srv := range snap.Servers {
		if !srv.Up || srv.ID == victim || !m.srv(srv.ID).shared() {
			continue
		}
		out = append(out, srvLoad{srv.ID, srv.CPUPerc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].load < out[j].load })
	ids := make([]cluster.MachineID, len(out))
	for i, s := range out {
		ids[i] = s.id
	}
	return ids
}

// Place implements actor.PlacementHook: new actors are placed per the
// elasticity rules (§4.2 "New actor creation") — colocation rules put them
// next to their creator, reserve/balance rules put them on the idlest
// server for the rule's resource; otherwise placement falls back to random
// (return -1).
func (m *Manager) Place(typ string, creator actor.Ref, creatorSrv cluster.MachineID) cluster.MachineID {
	creatorType := m.RT.TypeOf(creator)
	for _, rule := range m.Pol.Rules {
		for _, beh := range rule.Behaviors {
			switch bh := beh.(type) {
			case *epl.ColocateBeh:
				at, bt := bh.A.Type(), bh.B.Type()
				if typ != at && typ != bt && at != epl.AnyType && bt != epl.AnyType {
					continue
				}
				partner := bt
				if typ == bt {
					partner = at
				}
				if creatorSrv >= 0 && (partner == creatorType || partner == epl.AnyType) {
					if mach := m.C.Machine(creatorSrv); mach != nil && mach.Up() {
						return creatorSrv
					}
				}
			case *epl.ReserveBeh:
				if bh.Actor.Type() == typ || bh.Actor.Type() == epl.AnyType {
					if srv, ok := m.idlestMachine(bh.Res); ok {
						return srv
					}
				}
			case *epl.BalanceBeh:
				for _, t := range bh.Types {
					if t == typ || t == epl.AnyType {
						if srv, ok := m.idlestMachine(bh.Res); ok {
							return srv
						}
					}
				}
			}
		}
	}
	return -1
}

// idlestMachine picks the up, non-reserved, non-draining machine with the
// lowest live utilization on res.
func (m *Manager) idlestMachine(res epl.Resource) (cluster.MachineID, bool) {
	best := cluster.MachineID(-1)
	bestLoad := math.Inf(1)
	for _, mach := range m.C.UpMachines() {
		if !m.srv(mach.ID).shared() {
			continue
		}
		var load float64
		switch res {
		case epl.CPU:
			load = mach.CPUPercent()
		case epl.Mem:
			load = mach.MemPercent()
		case epl.Net:
			load = mach.NetPercent()
		}
		// Bias toward machines with fewer actors to break early-period ties
		// (utilization windows may be empty right after a reset).
		load += float64(m.RT.NumActorsOn(mach.ID)) * 0.01
		if load < bestLoad {
			bestLoad = load
			best = mach.ID
		}
	}
	return best, best >= 0
}
