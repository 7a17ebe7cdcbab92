package emr

import (
	"math"
	"sort"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
)

// srvLoad pairs a server with its utilization on the resource being planned.
type srvLoad struct {
	id   cluster.MachineID
	load float64
}

// planInteraction turns interaction intents into migration actions
// (applyActRules), aware of the destinations GEM actions will move actors
// to this period, so colocation partners follow in the same period.
//
// Colocate pairs are first merged into groups (a folder with eight files,
// a root partition with its children): the whole group follows one anchor
// destination, so a higher-priority balance or reserve action on any member
// drags the rest of the family along instead of splitting it.
func (m *Manager) planInteraction(snap *epl.Snapshot, in *epl.Intents, gemActions []Action) []Action {
	planned := map[actor.Ref]Action{}
	for _, a := range gemActions {
		if cur, ok := planned[a.Actor]; !ok || a.Pri > cur.Pri {
			planned[a.Actor] = a
		}
	}
	var out []Action
	out = append(out, m.planColocateGroups(snap, in.Colocate, planned)...)
	out = append(out, m.planSeparates(snap, in.Separate, planned)...)
	return out
}

// planColocateGroups unions colocate pairs into groups and emits one
// follow-the-anchor action per displaced member.
func (m *Manager) planColocateGroups(snap *epl.Snapshot, pairs []epl.PairIntent, planned map[actor.Ref]Action) []Action {
	parent := map[actor.Ref]actor.Ref{}
	var find func(x actor.Ref) actor.Ref
	find = func(x actor.Ref) actor.Ref {
		if parent[x] == x {
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	add := func(x actor.Ref) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	for _, pi := range pairs {
		if snap.Actor(pi.A) == nil || snap.Actor(pi.B) == nil {
			continue
		}
		add(pi.A)
		add(pi.B)
		ra, rb := find(pi.A), find(pi.B)
		if ra != rb {
			// Deterministic union: smaller id becomes root.
			if rb.ID < ra.ID {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	groups := map[actor.Ref][]*epl.ActorInfo{}
	for x := range parent {
		groups[find(x)] = append(groups[find(x)], snap.Actor(x))
	}
	roots := make([]actor.Ref, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })

	var out []Action
	for _, r := range roots {
		members := groups[r]
		sort.Slice(members, func(i, j int) bool { return members[i].Ref.ID < members[j].Ref.ID })
		dest, anchor := m.groupAnchor(members, planned)
		if dest < 0 {
			continue
		}
		for _, mem := range members {
			if mem.Server == dest {
				continue
			}
			if _, committed := planned[mem.Ref]; committed {
				continue // its own higher-priority action wins this period
			}
			if mem.Pinned || !m.movable(mem) {
				continue
			}
			out = append(out, Action{
				Actor: mem.Ref, Src: mem.Server, Trg: dest,
				Kind: epl.KindColocate, Res: epl.CPU,
				Pri: m.Cfg.priority(epl.KindColocate), Partner: anchor,
			})
		}
	}
	return out
}

// groupAnchor picks where a colocation group should live: the destination
// of the member with the highest-priority planned action, else the server
// of a pinned member, else the server already holding the most group state.
func (m *Manager) groupAnchor(members []*epl.ActorInfo, planned map[actor.Ref]Action) (cluster.MachineID, actor.Ref) {
	bestPri := -1
	var dest cluster.MachineID = -1
	var anchor actor.Ref
	for _, mem := range members {
		if a, ok := planned[mem.Ref]; ok && a.Pri > bestPri {
			bestPri = a.Pri
			dest = a.Trg
			anchor = mem.Ref
		}
	}
	if dest >= 0 {
		return dest, anchor
	}
	for _, mem := range members {
		if mem.Pinned {
			return mem.Server, mem.Ref
		}
	}
	if m.batchPlanner() {
		// Anchor on the group's internal traffic when it has any: the whole
		// family converges where its messages already land, so the colocate
		// migration batch moves the least chatty state.
		if dest, anchor, ok := m.groupAnchorAffinity(members); ok {
			return dest, anchor
		}
	}
	// Most resident state wins; ties go to the lowest server id.
	mass := map[cluster.MachineID]int64{}
	for _, mem := range members {
		mass[mem.Server] += mem.MemBytes + 1
	}
	ids := make([]cluster.MachineID, 0, len(mass))
	for id := range mass {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var best cluster.MachineID = -1
	var bestMass int64 = -1
	for _, id := range ids {
		if mass[id] > bestMass {
			best, bestMass = id, mass[id]
		}
	}
	for _, mem := range members {
		if mem.Server == best {
			anchor = mem.Ref
			break
		}
	}
	return best, anchor
}

// destOf is an actor's server after this period's already-planned actions.
func destOf(ai *epl.ActorInfo, planned map[actor.Ref]Action) cluster.MachineID {
	if a, ok := planned[ai.Ref]; ok {
		return a.Trg
	}
	return ai.Server
}

// planSeparates spreads co-resident actors of violated separate intents:
// each mover goes to a distinct least-loaded server, with a shared
// projection so one idle server does not absorb every mover (§3.2: keep
// separated "whenever resources are available").
func (m *Manager) planSeparates(snap *epl.Snapshot, pairs []epl.PairIntent, planned map[actor.Ref]Action) []Action {
	if len(pairs) == 0 {
		return nil
	}
	score := map[cluster.MachineID]float64{}
	var targets []cluster.MachineID
	for _, srv := range snap.Servers {
		if !srv.Up || m.draining[srv.ID] {
			continue
		}
		if _, taken := m.reserved[srv.ID]; taken {
			continue
		}
		score[srv.ID] = srv.CPUPerc
		targets = append(targets, srv.ID)
	}
	if len(targets) < 2 {
		return nil
	}
	// spreadPenalty makes each assignment push later movers elsewhere.
	const spreadPenalty = 25

	moved := map[actor.Ref]bool{}
	var out []Action
	for _, pi := range pairs {
		a, b := snap.Actor(pi.A), snap.Actor(pi.B)
		if a == nil || b == nil {
			continue
		}
		if destOf(a, planned) != destOf(b, planned) {
			continue
		}
		mover := b
		if _, committed := planned[mover.Ref]; committed || mover.Pinned || !m.movable(mover) || moved[mover.Ref] {
			mover = a
		}
		if _, committed := planned[mover.Ref]; committed || mover.Pinned || !m.movable(mover) || moved[mover.Ref] {
			continue
		}
		src := destOf(a, planned)
		best := cluster.MachineID(-1)
		bestScore := math.Inf(1)
		for _, id := range targets {
			if id == src {
				continue
			}
			if sc := score[id]; sc < bestScore {
				best, bestScore = id, sc
			}
		}
		if best < 0 || bestScore >= score[src] {
			continue // no quieter server available
		}
		moved[mover.Ref] = true
		score[best] += spreadPenalty
		out = append(out, Action{
			Actor: mover.Ref, Src: mover.Server, Trg: best,
			Kind: epl.KindSeparate, Res: epl.CPU,
			Pri: m.Cfg.priority(epl.KindSeparate),
		})
	}
	return out
}

// planResource is Alg. 2's applyResRules over a GEM's scope: balance and
// reserve intents become actions. It also reports whether every scoped
// server is overloaded (scale-out signal) or under-utilized (scale-in
// signal) per the triggering rules.
func (m *Manager) planResource(scope []cluster.MachineID, snap *epl.Snapshot, in *epl.Intents) (actions []Action, allOver, allUnder bool, outNeed int, wantIn bool) {
	inScope := map[cluster.MachineID]bool{}
	for _, id := range scope {
		inScope[id] = true
	}
	takenThisTick := map[cluster.MachineID]bool{}
	for _, ri := range in.Reserve {
		// A reserve intent naming a reservation's owner refreshes its lease:
		// the rule still wants the dedication (see Config.ReserveTTL).
		for srv, owner := range m.reserved {
			if owner == ri.Actor {
				m.resLease[srv] = m.Stats.Ticks
			}
		}
		a, starved := m.planReserve(ri, snap, inScope, takenThisTick)
		if a != nil {
			takenThisTick[a.Trg] = true
			actions = append(actions, *a)
		}
		if starved {
			// A reservation demand with no idle server to satisfy it is
			// scale-out pressure, one server's worth per starved intent.
			outNeed++
		}
	}
	for _, bi := range in.Balance {
		acts, over, under, out, in2 := m.planBalance(bi, snap, inScope)
		actions = append(actions, acts...)
		allOver = allOver || over
		allUnder = allUnder || under
		if out {
			outNeed++
		}
		wantIn = wantIn || in2
	}
	return actions, allOver, allUnder, outNeed, wantIn
}

// planReserve migrates the actor to an idle server which then becomes
// dedicated to it (admission enforces exclusivity).
func (m *Manager) planReserve(ri epl.ReserveIntent, snap *epl.Snapshot, inScope, takenThisTick map[cluster.MachineID]bool) (act *Action, starved bool) {
	ai := snap.Actor(ri.Actor)
	if ai == nil || !m.movableAt(ai, m.Cfg.priority(epl.KindReserve)) {
		return nil, false
	}
	// Already reserved somewhere and sitting there: nothing to do.
	if owner, ok := m.reserved[ai.Server]; ok && owner == ri.Actor {
		return nil, false
	}
	exclude := map[cluster.MachineID]bool{ai.Server: true}
	best := cluster.MachineID(-1)
	bestLoad := math.Inf(1)
	bestCnt := 0
	for _, srv := range snap.Servers {
		if !srv.Up || exclude[srv.ID] || m.draining[srv.ID] {
			continue
		}
		if !inScope[srv.ID] {
			continue
		}
		if _, taken := m.reserved[srv.ID]; taken {
			continue
		}
		if takenThisTick[srv.ID] {
			continue
		}
		load := srv.Res(ri.Res)
		cnt := m.RT.NumActorsOn(srv.ID)
		if m.batchPlanner() {
			// Lexicographic (load, resident count): the quietest server
			// wins, an emptier one breaks ties, and the id-ordered
			// iteration breaks full ties to the lowest server id.
			if load < bestLoad || (load == bestLoad && cnt < bestCnt) {
				bestLoad, bestCnt = load, cnt
				best = srv.ID
			}
			continue
		}
		// Legacy score: utilization percentage plus raw resident count, so
		// an empty server wins ties. The unit mixing is a known wart — 3
		// idle residents outweigh 2.9 points of load — but the scoring is
		// frozen under the byte-identity contract for pinned experiment
		// ids; the batch planner branch above carries the fix.
		load += float64(cnt)
		if load < bestLoad {
			bestLoad = load
			best = srv.ID
		}
	}
	if best < 0 {
		return nil, true
	}
	// Only worth reserving if the target is meaningfully quieter.
	src := snap.Server(ai.Server)
	trg := snap.Server(best)
	if src != nil && trg != nil && trg.Res(ri.Res) >= src.Res(ri.Res) {
		return nil, true
	}
	return &Action{
		Actor: ri.Actor, Src: ai.Server, Trg: best,
		Kind: epl.KindReserve, Res: ri.Res,
		Pri: m.Cfg.priority(epl.KindReserve), Partner: ri.Actor,
	}, false
}

// planBalance moves actors of the covered types from servers above the
// rule's upper bound to servers below its lower bound (PLASMA's heuristic,
// §4.2), greedily by per-actor usage, until the source's projected load
// falls inside the band.
func (m *Manager) planBalance(bi epl.BalanceIntent, snap *epl.Snapshot, inScope map[cluster.MachineID]bool) (actions []Action, allOver, allUnder, wantOut, wantIn bool) {
	upper := bi.Upper
	lower := bi.Lower
	if !bi.HasUpper() {
		upper = m.Cfg.DefaultUpper
	}
	if !bi.HasLower() {
		lower = upper
	}

	var over, underOrMid []srvLoad
	nOver, nUnder, total := 0, 0, 0
	for _, srv := range snap.Servers {
		if !srv.Up || !inScope[srv.ID] || m.draining[srv.ID] {
			continue
		}
		if _, taken := m.reserved[srv.ID]; taken {
			// Dedicated servers are outside balance's purview: their load
			// is the reservation owner's entitlement.
			continue
		}
		total++
		load := srv.Res(bi.Res)
		if load > upper {
			nOver++
			over = append(over, srvLoad{srv.ID, load})
		} else {
			if load < lower {
				nUnder++
			}
			underOrMid = append(underOrMid, srvLoad{srv.ID, load})
		}
	}
	if total == 0 {
		return nil, false, false, false, false
	}
	allOver = nOver == total
	allUnder = nUnder == total
	wantIn = allUnder && total > m.Cfg.MinServers

	// No overloaded server: the low-water side of the rule redistributes
	// by pulling actors onto under-utilized servers. For a lower-only rule
	// (E-Store's "server.cpu.perc < 50 => balance") any spread qualifies;
	// for a dual-bound rule the source must itself sit above the low-water
	// mark — a fleet that is uniformly light is a scale-in signal, not a
	// balancing problem.
	if len(over) == 0 {
		if nUnder > 0 && bi.HasLower() {
			minSource := 0.0
			if bi.HasUpper() {
				// Sources must be at least midway into the band: §4.2 moves
				// work off *loaded* servers, and a uniformly light fleet is
				// a scale-in signal rather than a balancing problem.
				minSource = (upper + lower) / 2
			}
			actions = m.planDeficitFill(bi, snap, underOrMid, lower, upper-lower, minSource)
		}
		return actions, allOver, allUnder, false, wantIn
	}

	sort.Slice(over, func(i, j int) bool { return over[i].load > over[j].load })
	sort.Slice(underOrMid, func(i, j int) bool { return underOrMid[i].load < underOrMid[j].load })
	projected := map[cluster.MachineID]float64{}
	for _, t := range underOrMid {
		projected[t.id] = t.load
	}

	for _, src := range over {
		cands := m.balanceCandidates(src.id, bi, snap)
		load := src.load
		// A source above the upper bound sheds load until it re-enters the
		// band; a source picked by the low-water redistribution path (its
		// load is already below upper) sheds toward the middle of the band.
		bar := upper
		if load <= upper {
			bar = (upper + lower) / 2
		}
		for _, ai := range cands {
			if load <= bar {
				break
			}
			use := ai.ResOf(bi.Res)
			if use <= 0 {
				break
			}
			trg := m.pickBalanceTarget(ai, bi, upper, projected, underOrMid, snap)
			if trg < 0 {
				// This actor fits nowhere; a lighter one may still fit.
				wantOut = true
				continue
			}
			actions = append(actions, Action{
				Actor: ai.Ref, Src: src.id, Trg: trg,
				Kind: epl.KindBalance, Res: bi.Res,
				Pri: m.Cfg.priority(epl.KindBalance),
			})
			load -= use
			projected[trg] += m.loadOn(ai, bi.Res, trg, snap)
		}
		if load > upper {
			// Still over the bound after shedding everything movable (or
			// having nothing to shed): unresolved overload is scale-out
			// pressure even when every candidate found a home.
			wantOut = true
		}
	}
	if allOver {
		wantOut = true
	}
	return actions, allOver, allUnder, wantOut, wantIn
}

// planDeficitFill raises servers below the rule's lower bound by moving
// actors from the most loaded servers, while never dragging a source below
// the destination's projected load (which would just invert the imbalance).
//
// The starvation probe (how far below lower a target must sit) and the
// minimum actionable spread are band-relative, capped at the historical
// constants 5 and 15: a rule with the standard 20-point band (or wider)
// plans exactly as before, while a tighter band scales both down so its
// low-water side can still act at all. band is upper-lower with the rule's
// bounds already defaulted; a degenerate band keeps the legacy constants.
func (m *Manager) planDeficitFill(bi epl.BalanceIntent, snap *epl.Snapshot, servers []srvLoad, lower, band, minSource float64) []Action {
	probe, minSpread := 5.0, 15.0
	if band > 0 && band/4 < probe {
		probe = band / 4
	}
	if band > 0 && 0.75*band < minSpread {
		minSpread = 0.75 * band
	}
	proj := map[cluster.MachineID]float64{}
	for _, s := range servers {
		proj[s.id] = s.load
	}
	moved := map[actor.Ref]bool{}
	var out []Action
	for guard := 0; guard < 64; guard++ {
		// Most deficient target and most loaded source.
		var trg, src cluster.MachineID = -1, -1
		minL, maxL := lower-probe, -1.0
		for _, s := range servers {
			l := proj[s.id]
			if l < minL {
				minL, trg = l, s.id
			}
			if l > maxL {
				maxL, src = l, s.id
			}
		}
		// Act only on meaningfully starved targets and material spreads;
		// a tighter trigger here would thrash actors around the band edge.
		if trg < 0 || src < 0 || src == trg || maxL-minL <= minSpread || maxL < minSource {
			break
		}
		cands := m.balanceCandidates(src, bi, snap)
		var pick *epl.ActorInfo
		spread := maxL - minL
		for _, ai := range cands {
			if moved[ai.Ref] {
				continue
			}
			use := ai.ResOf(bi.Res)
			add := m.loadOn(ai, bi.Res, trg, snap)
			if use <= 0 {
				break
			}
			// The move must shrink the pair's spread, not just invert it.
			after := (maxL - use) - (minL + add)
			if after < 0 {
				after = -after
			}
			if after < spread {
				pick = ai
				break
			}
		}
		if pick == nil {
			break
		}
		moved[pick.Ref] = true
		out = append(out, Action{
			Actor: pick.Ref, Src: src, Trg: trg,
			Kind: epl.KindBalance, Res: bi.Res,
			Pri: m.Cfg.priority(epl.KindBalance),
		})
		proj[src] -= pick.ResOf(bi.Res)
		proj[trg] += m.loadOn(pick, bi.Res, trg, snap)
	}
	return out
}

// balanceCandidates lists movable actors of the covered types on src,
// heaviest first.
func (m *Manager) balanceCandidates(src cluster.MachineID, bi epl.BalanceIntent, snap *epl.Snapshot) []*epl.ActorInfo {
	var cands []*epl.ActorInfo
	for _, ai := range snap.Actors {
		if ai.Server != src || !bi.Covers(ai.Type) || !m.movable(ai) {
			continue
		}
		cands = append(cands, ai)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].ResOf(bi.Res) > cands[j].ResOf(bi.Res)
	})
	return cands
}

// pickBalanceTarget chooses the least-projected-loaded target that stays
// under the upper bound after receiving the actor. Targets below the lower
// bound are preferred (the paper's "especially below specified lower
// bounds").
func (m *Manager) pickBalanceTarget(ai *epl.ActorInfo, bi epl.BalanceIntent, upper float64, projected map[cluster.MachineID]float64, targets []srvLoad, snap *epl.Snapshot) cluster.MachineID {
	best := cluster.MachineID(-1)
	bestLoad := math.Inf(1)
	for _, t := range targets {
		p := projected[t.id]
		add := m.loadOn(ai, bi.Res, t.id, snap)
		if p+add > upper {
			continue
		}
		if p < bestLoad {
			bestLoad = p
			best = t.id
		}
	}
	return best
}

// leastLoaded returns the up, non-reserved, non-draining server with the
// lowest utilization on res, excluding the given set.
func (m *Manager) leastLoaded(res epl.Resource, snap *epl.Snapshot, exclude map[cluster.MachineID]bool) (cluster.MachineID, bool) {
	best := cluster.MachineID(-1)
	bestLoad := math.Inf(1)
	for _, srv := range snap.Servers {
		if !srv.Up || exclude[srv.ID] || m.draining[srv.ID] {
			continue
		}
		if _, taken := m.reserved[srv.ID]; taken {
			continue
		}
		if srv.Res(res) < bestLoad {
			bestLoad = srv.Res(res)
			best = srv.ID
		}
	}
	return best, best >= 0
}
