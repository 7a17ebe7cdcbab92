package emr

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/trace"
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
				Pri: priority(epl.KindColocate), Partner: anchor,
			})
		}
	}
	return out
}

// groupAnchor picks where a colocation group should live: the destination
// of the member with the highest-priority planned action, else the server
// of a pinned member, else where the group's internal traffic already lands
// — so the colocate batch moves the least chatty state — with ties (and
// groups that exchanged no profiled messages) going to the most resident
// state, then the lowest server id.
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
	byID := make(map[actor.ID]*epl.ActorInfo, len(members))
	for _, mem := range members {
		byID[mem.Ref.ID] = mem
	}
	// Per server: the intra-group message weight its resident members take
	// part in (message counts, so the sums are exact in any order), and
	// their state mass.
	comm := map[cluster.MachineID]float64{}
	mass := map[cluster.MachineID]int64{}
	for _, mem := range members {
		mass[mem.Server] += mem.MemBytes + 1
		for _, cs := range mem.Calls {
			if peer := byID[cs.Caller.ID]; peer != nil && peer != mem && cs.Count > 0 {
				comm[mem.Server] += float64(cs.Count)
				comm[peer.Server] += float64(cs.Count)
			}
		}
	}
	ids := make([]cluster.MachineID, 0, len(mass))
	for id := range mass {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if dest < 0 || comm[id] > comm[dest] || (comm[id] == comm[dest] && mass[id] > mass[dest]) {
			dest = id
		}
	}
	// The anchor is the partner admission checks the followers against: the
	// first member already there, but on a dedicated server its owner — a
	// reserved server admits nobody else's partners.
	for _, mem := range members {
		if mem.Server == dest && (anchor.Zero() || mem.Ref == m.srv(dest).owner) {
			anchor = mem.Ref
		}
	}
	return dest, anchor
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
		if !srv.Up || !m.srv(srv.ID).shared() {
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

	// moved is where this pass sends its movers: a pair whose member already
	// left is settled, so its partner stays.
	moved := map[actor.Ref]cluster.MachineID{}
	at := func(ai *epl.ActorInfo) cluster.MachineID {
		if to, ok := moved[ai.Ref]; ok {
			return to
		}
		return destOf(ai, planned)
	}
	stays := func(ai *epl.ActorInfo) bool {
		_, committed := planned[ai.Ref]
		_, gone := moved[ai.Ref]
		return committed || gone || ai.Pinned || !m.movable(ai)
	}
	var out []Action
	for _, pi := range pairs {
		a, b := snap.Actor(pi.A), snap.Actor(pi.B)
		if a == nil || b == nil {
			continue
		}
		if at(a) != at(b) {
			continue
		}
		mover := b
		if stays(mover) {
			mover = a
		}
		if stays(mover) {
			continue
		}
		src := at(a)
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
		moved[mover.Ref] = best
		score[best] += spreadPenalty
		out = append(out, Action{
			Actor: mover.Ref, Src: mover.Server, Trg: best,
			Kind: epl.KindSeparate, Res: epl.CPU,
			Pri: priority(epl.KindSeparate),
		})
	}
	return out
}

// The planning round (Alg. 2's applyResRules). A GEM collects the period's
// reserve and balance intents and solves them in one deterministic greedy
// packing pass over per-server (cpu, mem, net) utilization vectors:
//
//   - reservations first — they are the most specific placement demands —
//     each to the scoped shared-pool server lowest on (load, resident count,
//     id); a server dedicated this tick leaves the packing set, so balance
//     never plans onto it only to be refused at admission;
//   - every planned move updates one shared projection, so a later intent
//     sees the fleet as the earlier ones will leave it, and a mover is
//     planned at most once however many intents cover it;
//   - a target must fit the mover on all three axes (the planned axis under
//     the rule's upper bound, the others under the admission bound), so a
//     cpu rule cannot overload memory and have a mem rule undo it a period
//     later;
//   - among fitting targets the mover's communication affinity decides (the
//     profiled message counts), then the lowest projected load, then the
//     lowest server id, and a source sheds the actors that talk to it least
//     first;
//   - with no server over the band, the rule's low-water side fills the most
//     starved server from the most loaded one (planDeficitFill).
//
// Determinism: servers are scanned in snapshot (id) order, over-band sources
// sort on (load desc, id asc), candidates on (affinity asc, share desc, id
// asc), the affinity adjacency is id-sorted, and every tiebreak ends at the
// lowest id. No map is iterated to produce output, and nothing depends on
// the order of snap.Actors.

// round is one planning round's state. It lives on the Manager and is
// re-sliced every round, so a steady-state period allocates next to nothing
// here.
//
// The per-server buckets and the affinity edges are functions of the
// snapshot's actors alone, which every WithServers view of one snapshot
// shares: a period's GEMs each plan over such a view. So they are built by
// the first round that reaches for them and kept, tagged with the
// snapshot's generation (epl.Snapshot.Gen), for every later round of the
// period; the next Index() — the profiler re-indexes its one *Snapshot each
// period — draws a new generation and so invalidates both. A round that
// never sheds or reserves builds neither.
type round struct {
	snap *epl.Snapshot
	// last, when non-nil, is the planning GEM's report table: a server it
	// heard from in period tick is fresh, the others in scope are known from
	// a REPORT up to stalePeriods old. Affinity is trusted only toward the
	// former: it is the one criterion that prefers a loaded server to an idle
	// one, and a target packed toward the bound on an outdated reading is the
	// move admission refuses a hop later, while the overloaded source waits a
	// period (Fig. 11c with four GEMs: a 950 ms transient).
	last []lastReport
	tick int

	// slot maps a machine id to its index in the packing set (servers,
	// proj, caps), or to one of the negative markers below.
	slot    []int32
	servers []cluster.MachineID            // scoped, up, shared-pool servers, id order
	proj    [][3]float64                   // projected (cpu, mem, net) utilization
	caps    [][3]float64                   // capacity, for rescaling a mover's share
	dest    map[actor.ID]cluster.MachineID // where the round leaves each actor it has decided about

	bucketGen uint64           // the snapshot generation start/resident hold
	srvOf     []int32          // snap.Actors[i].Server, read once per generation
	start     []int32          // machine id -> its run in resident
	resident  []*epl.ActorInfo // snap.Actors grouped by server

	aff    graph.Affinity
	affGen uint64 // the snapshot generation aff holds
	pulls  []srvLoad
	cands  []cand
}

const (
	slotOut   = -1 // outside the GEM's view
	slotScope = -2 // in view but not packable: down, draining or reserved
	slotTaken = -3 // dedicated by a reservation planned this round
)

// begin resets the round for a new view — the snapshot's servers are the
// scope — over a fleet of n machines.
func (r *round) begin(snap *epl.Snapshot, n int, last []lastReport, tick int) {
	r.snap, r.last, r.tick = snap, last, tick
	r.slot = slices.Grow(r.slot[:0], n)[:n]
	for i := range r.slot {
		r.slot[i] = slotOut
	}
	for _, srv := range snap.Servers {
		r.slot[srv.ID] = slotScope
	}
	r.servers, r.proj, r.caps = r.servers[:0], r.proj[:0], r.caps[:0]
	if r.dest == nil {
		r.dest = map[actor.ID]cluster.MachineID{}
	}
	clear(r.dest)
}

// residents lists the snapshot's actors on srv, in snapshot order. The
// first call for a snapshot generation buckets snap.Actors by server: one
// pass reads each row's server into srvOf, and a counting sort over that
// array places the rows without visiting them again.
func (r *round) residents(srv cluster.MachineID) []*epl.ActorInfo {
	if r.bucketGen != r.snap.Gen() {
		r.bucketGen = r.snap.Gen()
		actors := r.snap.Actors
		r.srvOf = slices.Grow(r.srvOf[:0], len(actors))[:len(actors)]
		n := int32(0)
		for i, ai := range actors {
			s := int32(ai.Server)
			r.srvOf[i] = s
			n = max(n, s+1)
		}
		r.start = slices.Grow(r.start[:0], int(n)+2)[:n+2]
		clear(r.start)
		for _, s := range r.srvOf {
			if s >= 0 {
				r.start[s+2]++
			}
		}
		for i := 1; i < len(r.start); i++ {
			r.start[i] += r.start[i-1]
		}
		total := int(r.start[n+1])
		r.resident = slices.Grow(r.resident[:0], total)[:total]
		for i, s := range r.srvOf {
			if s >= 0 {
				r.resident[r.start[s+1]] = actors[i]
				r.start[s+1]++
			}
		}
	}
	if int(srv) >= len(r.start)-2 {
		return nil // past the last server any actor sits on
	}
	return r.resident[r.start[srv]:r.start[srv+1]]
}

// peers is the actor's adjacency in the period's communication graph: the
// snapshot's profiled call counts folded into undirected edges. Client
// calls (Caller.ID == 0) have no actor peer and are skipped. The graph is
// built by the first call for a snapshot generation, which only an
// over-band source or a planned reservation makes.
func (r *round) peers(id actor.ID) []graph.AffEdge {
	if r.affGen != r.snap.Gen() {
		r.affGen = r.snap.Gen()
		r.aff.Reset()
		for _, ai := range r.snap.Actors {
			for _, cs := range ai.Calls {
				if cs.Caller.ID != 0 {
					r.aff.Add(int64(ai.Ref.ID), int64(cs.Caller.ID), float64(cs.Count))
				}
			}
		}
	}
	return r.aff.Peers(int64(id))
}

// pull resolves a mover's peers to where each will be once this round's
// moves land: one (server, weight) entry per peer, in peer-id order. The
// result is scratch, valid until the next call.
func (r *round) pull(id actor.ID) []srvLoad {
	r.pulls = r.pulls[:0]
	for _, e := range r.peers(id) {
		p := actor.ID(e.Peer)
		at, planned := r.dest[p]
		if !planned {
			pi := r.snap.Actor(actor.Ref{ID: p})
			if pi == nil {
				continue
			}
			at = pi.Server
		}
		r.pulls = append(r.pulls, srvLoad{at, e.Weight})
	}
	return r.pulls
}

// affTo sums a mover's pull toward srv: its communication affinity there.
func affTo(pull []srvLoad, srv cluster.MachineID) float64 {
	var s float64
	for _, p := range pull {
		if p.id == srv {
			s += p.load
		}
	}
	return s
}

// move records a planned migration in the shared projection.
func (r *round) move(ai *epl.ActorInfo, from, to int32, add [3]float64) {
	vec := ai.ResVec()
	for x := range vec {
		r.proj[from][x] -= vec[x]
		r.proj[to][x] += add[x]
	}
	r.dest[ai.Ref.ID] = r.servers[to]
}

// planResource runs the round over a GEM's view — snap's servers are its
// scope — and reports, beside the actions, the scale signals: whether every
// packable server is over (resp. under) some rule's band, how many servers'
// worth of scale-out pressure the round could not place, and whether a rule
// wants to scale in. last is round.last (nil: every scoped server reported
// this period); parent/tickIdx anchor the plan-batch trace record to the GEM
// evaluation that produced the intents.
func (m *Manager) planResource(last []lastReport, snap *epl.Snapshot, in *epl.Intents, parent uint64, tickIdx int) (actions []Action, allOver, allUnder bool, outNeed int, wantIn bool) {
	r := &m.rd
	m.grow()
	r.begin(snap, len(m.servers), last, tickIdx)

	for _, ri := range in.Reserve {
		// A reserve intent naming a reservation's owner refreshes its lease:
		// the rule still wants the dedication (see Config.ReserveTTL).
		for _, s := range m.servers {
			if s.owner == ri.Actor {
				s.lease = m.Stats.Ticks
			}
		}
		trg, starved := m.planReserve(ri)
		if trg >= 0 {
			r.slot[trg] = slotTaken
			r.dest[ri.Actor.ID] = trg
			actions = append(actions, Action{
				Actor: ri.Actor, Src: snap.Actor(ri.Actor).Server, Trg: trg,
				Kind: epl.KindReserve, Res: ri.Res,
				Pri: priority(epl.KindReserve), Partner: ri.Actor,
			})
		}
		if starved {
			// A reservation demand with no idle server to satisfy it is
			// scale-out pressure, one server's worth per starved intent.
			outNeed++
		}
	}
	nResv := len(actions)

	for _, srv := range snap.Servers {
		// Dedicated servers are outside balance's purview: their load is the
		// reservation owner's entitlement.
		if r.slot[srv.ID] != slotScope || !srv.Up || !m.servers[srv.ID].shared() {
			continue
		}
		r.slot[srv.ID] = int32(len(r.servers))
		r.servers = append(r.servers, srv.ID)
		r.proj = append(r.proj, srv.ResVec())
		r.caps = append(r.caps, m.capacity(srv.ID))
	}
	// A planned reservation enters the projection like any other move: the
	// owner's load leaves its source, and the actors it exchanges messages
	// with stay put for the round. Whether they follow the owner is the
	// LEM's colocate rule's call; balance moving a child off the source its
	// parent is just leaving would outrank that colocate and split the
	// family across three servers.
	for _, a := range actions {
		owner := snap.Actor(a.Actor)
		if from := r.slot[a.Src]; from >= 0 {
			for x, v := range owner.ResVec() {
				r.proj[from][x] -= v
			}
		}
		for _, e := range r.peers(a.Actor.ID) {
			if pi := snap.Actor(actor.Ref{ID: actor.ID(e.Peer)}); pi != nil {
				if _, planned := r.dest[pi.Ref.ID]; !planned {
					r.dest[pi.Ref.ID] = pi.Server
				}
			}
		}
	}
	if len(r.servers) > 0 {
		for _, bi := range in.Balance {
			acts, over, under, out, in2 := m.planBalance(bi)
			actions = append(actions, acts...)
			allOver = allOver || over
			allUnder = allUnder || under
			if out {
				outNeed++
			}
			wantIn = wantIn || in2
		}
	}
	m.tracePlan(parent, tickIdx, actions, nResv, in.Balance)
	return actions, allOver, allUnder, outNeed, wantIn
}

// planReserve picks the server to dedicate to the intent's actor: the
// scoped, up, shared-pool server lowest on (load, resident count, id) —
// the quietest wins, an emptier one breaks ties, the id-ordered scan breaks
// full ties. trg is -1 when nothing is planned; starved says the demand
// stands but no server can take it.
func (m *Manager) planReserve(ri epl.ReserveIntent) (trg cluster.MachineID, starved bool) {
	r := &m.rd
	ai := r.snap.Actor(ri.Actor)
	if ai == nil || !m.movableAt(ai, priority(epl.KindReserve)) {
		return -1, false
	}
	if _, planned := r.dest[ri.Actor.ID]; planned {
		return -1, false // a second intent naming the same actor
	}
	// Already reserved somewhere and sitting there: nothing to do.
	if m.srv(ai.Server).owner == ri.Actor {
		return -1, false
	}
	trg = -1
	bestLoad, bestCnt := math.Inf(1), 0
	for _, srv := range r.snap.Servers {
		if r.slot[srv.ID] != slotScope || !srv.Up || srv.ID == ai.Server || !m.servers[srv.ID].shared() {
			continue
		}
		load := srv.Res(ri.Res)
		if load > bestLoad {
			continue
		}
		cnt := len(r.residents(srv.ID))
		if load < bestLoad || cnt < bestCnt {
			trg, bestLoad, bestCnt = srv.ID, load, cnt
		}
	}
	// Only worth reserving if the target is meaningfully quieter.
	if src := r.snap.Server(ai.Server); trg < 0 || (src != nil && bestLoad >= src.Res(ri.Res)) {
		return -1, true
	}
	return trg, false
}

// planBalance runs one balance intent through the shared projection:
// servers above the rule's upper bound shed into targets that fit on every
// axis until they re-enter the band (PLASMA's heuristic, §4.2); with none
// above it, the low-water side redistributes.
func (m *Manager) planBalance(bi epl.BalanceIntent) (actions []Action, allOver, allUnder, wantOut, wantIn bool) {
	r := &m.rd
	upper, lower := epl.Band(bi.Upper, bi.Lower)
	ax := int(bi.Res)

	var over []srvLoad
	nUnder := 0
	for s, id := range r.servers {
		if load := r.proj[s][ax]; load > upper {
			over = append(over, srvLoad{id, load})
		} else if load < lower {
			nUnder++
		}
	}
	total := len(r.servers)
	allOver = len(over) == total
	allUnder = nUnder == total
	wantIn = allUnder && total > m.Cfg.MinServers

	if len(over) == 0 {
		// For a lower-only rule (E-Store's "server.cpu.perc < 50 =>
		// balance") any spread qualifies; for a dual-bound rule the source
		// must sit at least midway into the band: §4.2 moves work off
		// *loaded* servers, and a uniformly light fleet is a scale-in
		// signal rather than a balancing problem.
		if nUnder > 0 && bi.HasLower() {
			minSource := 0.0
			if bi.HasUpper() {
				minSource = (upper + lower) / 2
			}
			actions = m.planDeficitFill(bi, upper, lower, minSource)
		}
		return actions, allOver, allUnder, false, wantIn
	}

	slices.SortFunc(over, func(a, b srvLoad) int {
		return cmp.Or(cmp.Compare(b.load, a.load), cmp.Compare(a.id, b.id))
	})
	for _, src := range over {
		from := r.slot[src.id]
		cands := m.candidates(src.id, bi)
		// Shed the candidates that least want to be here first: evicting an
		// actor away from its own traffic only recreates the remote chatter
		// somewhere else. Equal-affinity candidates keep heaviest-first.
		for i := range cands {
			cands[i].aff = affTo(r.pull(cands[i].ai.Ref.ID), src.id)
		}
		slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.aff, b.aff) })
		for _, c := range cands {
			if r.proj[from][ax] <= upper {
				break
			}
			to, add := m.pickTarget(c.ai, from, ax, upper)
			if to < 0 {
				wantOut = true
				continue // a lighter candidate may still fit
			}
			actions = append(actions, m.balanceAction(c.ai, r.servers[to], bi.Res))
			r.move(c.ai, from, to, add)
		}
		if r.proj[from][ax] > upper {
			// Still over the bound after shedding everything movable (or
			// having nothing to shed): unresolved overload is scale-out
			// pressure even when every candidate found a home.
			wantOut = true
		}
	}
	return actions, allOver, allUnder, wantOut || allOver, wantIn
}

func (m *Manager) balanceAction(ai *epl.ActorInfo, trg cluster.MachineID, res epl.Resource) Action {
	return Action{Actor: ai.Ref, Src: ai.Server, Trg: trg, Kind: epl.KindBalance, Res: res,
		Pri: priority(epl.KindBalance)}
}

// cand is one shed candidate on a source server.
type cand struct {
	ai  *epl.ActorInfo
	use float64 // its share of the planned axis there
	aff float64 // its communication affinity to that server
}

// candidates lists what the intent may move off src — actors of a covered
// type that are movable, not already planned this round, and hold a
// positive share of the planned axis — heaviest first, ties to the lowest
// actor id. The slice is the round's scratch: valid until the next call.
func (m *Manager) candidates(src cluster.MachineID, bi epl.BalanceIntent) []cand {
	r := &m.rd
	r.cands = r.cands[:0]
	for _, ai := range r.residents(src) {
		if _, planned := r.dest[ai.Ref.ID]; planned || !bi.Covers(ai.Type) || !m.movable(ai) {
			continue
		}
		if use := ai.ResOf(bi.Res); use > 0 {
			r.cands = append(r.cands, cand{ai: ai, use: use})
		}
	}
	slices.SortFunc(r.cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(b.use, a.use), cmp.Compare(a.ai.Ref.ID, b.ai.Ref.ID))
	})
	return r.cands
}

// fits reports whether slot s can take a mover adding add: the planned axis
// must stay under the rule's upper bound, the others under the admission
// bound (epl.DefaultUpper).
func (m *Manager) fits(s int, add [3]float64, ax int, upper float64) bool {
	p := &m.rd.proj[s]
	for x := range add {
		bound := epl.DefaultUpper
		if x == ax {
			bound = upper
		}
		if p[x]+add[x] > bound {
			return false
		}
	}
	return true
}

// pickTarget chooses where a mover goes: among the slots it fits on every
// axis, the highest communication affinity wins (counted only toward servers
// with a current report), then the lowest projected load on the planned
// axis, then the lowest server id. It returns slot -1
// when the mover fits nowhere, else the slot and the load the mover adds.
//
// Only a server one of the mover's peers sits on can score any affinity,
// so the pick runs in two phases that together equal one scan of every slot
// in that order. Phase 1 scores just those servers; pull lists them in peer
// order, not slot order, so an exact tie goes to the lower slot explicitly.
// If none of them fits with positive affinity, every fitting slot scores 0,
// and phase 2 is one pass in slot order for the lowest load, which passes
// over a slot not below the best load so far before rescaling the mover's
// share or testing the fit.
func (m *Manager) pickTarget(ai *epl.ActorInfo, from int32, ax int, upper float64) (to int32, add [3]float64) {
	r := &m.rd
	pull := r.pull(ai.Ref.ID)
	to = -1
	bestAff, bestLoad := 0.0, 0.0
	sh := shareCache{ai: ai, src: r.caps[from]}
	for _, p := range pull {
		if uint(p.id) >= uint(len(r.slot)) {
			continue // no machine of the fleet: never a slot
		}
		s := r.slot[p.id]
		if s < 0 || s == from || (r.last != nil && r.last[p.id].heard != r.tick) {
			continue
		}
		aff, load := affTo(pull, p.id), r.proj[s][ax]
		if aff < bestAff || (aff == bestAff && (to < 0 || load > bestLoad || (load == bestLoad && s >= to))) {
			continue
		}
		if a := sh.on(r.caps[s]); m.fits(int(s), a, ax, upper) {
			to, add, bestAff, bestLoad = s, a, aff, load
		}
	}
	if to >= 0 {
		return to, add
	}
	for s := range r.servers {
		load := r.proj[s][ax]
		if int32(s) == from || (to >= 0 && !(load < bestLoad)) {
			continue
		}
		if a := sh.on(r.caps[s]); m.fits(s, a, ax, upper) {
			to, add, bestLoad = int32(s), a, load
		}
	}
	return to, add
}

// shareCache rescales one mover's share to destination capacities. The
// share is the same on every machine of one capacity, so a homogeneous
// fleet rescales it once.
type shareCache struct {
	ai       *epl.ActorInfo
	src, dst [3]float64
	v        [3]float64
	known    bool
}

func (c *shareCache) on(dst [3]float64) [3]float64 {
	if !c.known || dst != c.dst {
		c.v, c.dst, c.known = shareOn(c.ai, c.src, dst), dst, true
	}
	return c.v
}

// planDeficitFill raises servers below the rule's lower bound by moving
// actors from the most loaded servers, while never dragging a source below
// the destination's projected load (which would just invert the imbalance).
//
// The starvation probe (how far below lower a target must sit) and the
// minimum actionable spread are band-relative, capped at 5 and 15 points: a
// rule with the standard 20-point band (or wider) uses the caps, a tighter
// band scales both down so its low-water side can still act at all; a
// degenerate band uses the caps too.
func (m *Manager) planDeficitFill(bi epl.BalanceIntent, upper, lower, minSource float64) []Action {
	r := &m.rd
	ax := int(bi.Res)
	probe, minSpread := 5.0, 15.0
	if band := upper - lower; band > 0 {
		probe = min(probe, band/4)
		minSpread = min(minSpread, 0.75*band)
	}
	var out []Action
	for guard := 0; guard < 64; guard++ {
		// Most deficient target and most loaded source.
		var trg, src int32 = -1, -1
		minL, maxL := lower-probe, -1.0
		for s := range r.servers {
			l := r.proj[s][ax]
			if l < minL {
				minL, trg = l, int32(s)
			}
			if l > maxL {
				maxL, src = l, int32(s)
			}
		}
		// Act only on meaningfully starved targets and material spreads;
		// a tighter trigger here would thrash actors around the band edge.
		spread := maxL - minL
		if trg < 0 || src < 0 || src == trg || spread <= minSpread || maxL < minSource {
			break
		}
		var pick *epl.ActorInfo
		var add [3]float64
		for _, c := range m.candidates(r.servers[src], bi) {
			a := shareOn(c.ai, r.caps[src], r.caps[trg])
			// The move must shrink the pair's spread, not just invert it.
			if math.Abs((maxL-c.use)-(minL+a[ax])) < spread && m.fits(int(trg), a, ax, upper) {
				pick, add = c.ai, a
				break
			}
		}
		if pick == nil {
			break
		}
		out = append(out, m.balanceAction(pick, r.servers[trg], bi.Res))
		r.move(pick, src, trg, add)
	}
	return out
}

// tracePlan emits the round's plan-batch summary record: the moves, and
// how many packing-set servers each intent's band still has outside it.
func (m *Manager) tracePlan(parent uint64, tickIdx int, actions []Action, nResv int, intents []epl.BalanceIntent) {
	if !m.tr.Enabled() {
		return
	}
	r := &m.rd
	dsts := map[cluster.MachineID]bool{}
	for _, a := range actions {
		dsts[a.Trg] = true
	}
	nOver, nUnder := 0, 0
	for _, bi := range intents {
		upper, lower := epl.Band(bi.Upper, bi.Lower)
		for s := range r.servers {
			switch l := r.proj[s][bi.Res]; {
			case l > upper:
				nOver++
			case l < lower:
				nUnder++
			}
		}
	}
	m.tr.Emit(trace.Record{Kind: trace.KindPlanBatch, Parent: parent,
		Tick: int32(tickIdx), Server: -1, Target: -1, Rule: -1,
		Value: float64(len(actions)),
		Detail: "resv=" + strconv.Itoa(nResv) + " moves=" + strconv.Itoa(len(actions)-nResv) +
			" dsts=" + strconv.Itoa(len(dsts)) + " over=" + strconv.Itoa(nOver) + " under=" + strconv.Itoa(nUnder)})
}
