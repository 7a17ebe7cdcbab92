// Package profile implements PLASMA's elasticity profiling runtime (EPR):
// it tracks the behavior of actors (CPU time, memory, network) and their
// interactions (message rates and sizes per caller and function), plus
// per-server resource utilization, within each elasticity period window.
//
// The EPR is the data source for rule evaluation: every period, the EMR
// takes a Snapshot and resets the window.
//
// The hot path is built for million-actor fleets: actor ids are assigned
// sequentially and never reused, so all per-actor state is held in dense
// slices indexed by id rather than maps, the per-callee call tables keep
// their keys from one window to the next, the window reset visits only the
// callees whose tables hold keys, kept as a bitmap over actor ids (a fleet
// where few actors are called pays for those few, not for every actor id),
// and each actor keeps one ActorInfo row, with its own Props map, that every
// Snapshot overwrites in place instead of allocating one per actor per period.
package profile

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"strings"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// callRec is one (caller, method) bucket of a callee's call table: 32 bytes
// and no pointers, so the table costs the collector nothing. ctype and
// method index Profiler.names; the strings an epl.CallStat carries are put
// back when Snapshot copies a live record out.
type callRec struct {
	caller        actor.ID
	ctype, method uint32
	count, bytes  int64
}

// promoteAt is the per-callee call-table length past which the linear-scan
// lookup in OnMessage is promoted to a hash index. Most callees see a
// handful of (caller, method) pairs; hot fan-in actors get the index.
const promoteAt = 16

// calleeCalls is one callee's call table. It persists across windows: Reset
// zeroes the counters and keeps the keys, so a callee whose callers repeat
// pays for a key once, not once a window. New keys are appended; Snapshot
// re-sorts the table (and rebuilds idx) only when unsorted says one was.
type calleeCalls struct {
	recs []callRec
	// idx is an open-addressed index over recs, linearly probed: 0 is an
	// empty slot, j+1 stands for recs[j]. Nil while len(recs) <= promoteAt,
	// otherwise a power of two of at least 2*len(recs) slots.
	idx      []int32
	unsorted bool
}

// slot is where a key's probe sequence starts in an index of mask+1 slots.
// It hashes what a lookup has without touching the name table: the caller
// and the method's length.
func slot(caller actor.ID, method string, mask uint64) uint64 {
	h := (uint64(caller) ^ uint64(len(method))<<48) * 0x9E3779B97F4A7C15
	return h >> bits.LeadingZeros64(mask)
}

// find returns the key's position in recs, or -1. Records are matched by
// the strings their ids stand for, which == settles on the pointer when the
// runtime passes the same string values it passed before — so a hit interns
// nothing.
func (cc *calleeCalls) find(names []string, callerType string, caller actor.ID, method string) int {
	match := func(r *callRec) bool {
		return r.caller == caller && names[r.method] == method && names[r.ctype] == callerType
	}
	if cc.idx == nil {
		for j := range cc.recs {
			if match(&cc.recs[j]) {
				return j
			}
		}
		return -1
	}
	mask := uint64(len(cc.idx) - 1)
	for s := slot(caller, method, mask); ; s = (s + 1) & mask {
		j := int(cc.idx[s]) - 1
		if j < 0 || match(&cc.recs[j]) {
			return j
		}
	}
}

// place enters recs[i] into an index that has room for it.
func (cc *calleeCalls) place(names []string, i int) {
	mask := uint64(len(cc.idx) - 1)
	s := slot(cc.recs[i].caller, names[cc.recs[i].method], mask)
	for cc.idx[s] != 0 {
		s = (s + 1) & mask
	}
	cc.idx[s] = int32(i + 1)
}

// buildIdx indexes recs afresh: after an append found no room, a sort or an
// eviction. The index is sized at four to eight slots a record and replaced
// when it has drifted a factor of two outside that.
func (cc *calleeCalls) buildIdx(names []string) {
	if len(cc.recs) <= promoteAt {
		cc.idx = nil
		return
	}
	if n := 1 << bits.Len(uint(4*len(cc.recs)-1)); len(cc.idx) < n/2 || len(cc.idx) > 2*n {
		cc.idx = make([]int32, n)
	} else {
		clear(cc.idx)
	}
	for i := range cc.recs {
		cc.place(names, i)
	}
}

// Profiler collects per-window runtime information. It implements
// actor.ProfilerHook. A single Profiler serves all servers; snapshots can be
// scoped to a server subset, which is how per-LEM and per-GEM views are
// produced.
//
// Lifetime contract: the *epl.Snapshot returned by Snapshot, its ActorInfos
// and their Calls and Props are valid until the next call to Snapshot, which
// overwrites them in place. Callers take one snapshot per elasticity period
// and finish with it inside the period. Its ServerInfos are allocated afresh
// each call, so they may be kept.
type Profiler struct {
	k  *sim.Kernel
	c  *cluster.Cluster
	rt *actor.Runtime

	windowStart sim.Time

	// Dense per-actor state, indexed by actor id. The three slices are grown
	// in lockstep, at spawn time via OnSpawn; Reset zeroes the counters in
	// place.
	actorCPU []sim.Duration
	actorNet []int64
	calls    []calleeCalls
	// held is the set of callees whose call tables hold keys, one bit per
	// actor id: OnMessage sets a callee's bit with its first key, Reset
	// clears it when eviction empties the table, and walks only the set bits.
	// (A list of ids did the same but, grown by append to 131k callees, cost
	// fleet_control 5 MB of allocation; the bitmap is 16 KB.)
	held []uint64

	// names interns the actor type and method names callRecs refer to.
	names []string

	callRecs int   // records held across all call tables, live or quiet
	messages int64 // total messages observed (all time), for overhead tests

	// What Snapshot hands out, overwritten by each call: one row per actor id
	// (a row the last walk did not visit holds nothing), the snapshot listing
	// the visited rows, and the buffer their Calls slice.
	rows    []epl.ActorInfo
	snap    epl.Snapshot
	callBuf []epl.CallStat
	scope   []bool // reused scratch for Snapshot scoping, indexed by MachineID
}

// New creates a profiler and attaches it to the runtime.
func New(k *sim.Kernel, c *cluster.Cluster, rt *actor.Runtime) *Profiler {
	p := &Profiler{k: k, c: c, rt: rt}
	rt.SetProfiler(p)
	return p
}

// OnSpawn pre-grows the dense accumulators for a newly spawned actor, so
// the per-message hooks find them sized.
func (p *Profiler) OnSpawn(srv cluster.MachineID, a actor.Ref) { p.ensure(a.ID) }

// ensure grows the dense per-actor slices to cover id.
func (p *Profiler) ensure(id actor.ID) {
	n := int(id) + 1
	if n <= len(p.actorCPU) {
		return
	}
	if n < 2*len(p.actorCPU) {
		n = 2 * len(p.actorCPU)
	}
	cpu := make([]sim.Duration, n)
	copy(cpu, p.actorCPU)
	p.actorCPU = cpu
	net := make([]int64, n)
	copy(net, p.actorNet)
	p.actorNet = net
	calls := make([]calleeCalls, n)
	copy(calls, p.calls)
	p.calls = calls
	held := make([]uint64, (n+63)/64)
	copy(held, p.held)
	p.held = held
}

// intern returns the name table's id for s, adding s on first sight. The
// table holds actor type and method names, tens of entries, and is consulted
// only when a call table gains a key: a linear scan will do.
func (p *Profiler) intern(s string) uint32 {
	for i, n := range p.names {
		if n == s {
			return uint32(i)
		}
	}
	p.names = append(p.names, s)
	return uint32(len(p.names) - 1)
}

// OnMessage implements actor.ProfilerHook.
func (p *Profiler) OnMessage(srv cluster.MachineID, callerType string, caller actor.Ref, callee actor.Ref, calleeType, method string, size int64) {
	p.ensure(callee.ID)
	cc := &p.calls[callee.ID]
	i := cc.find(p.names, callerType, caller.ID, method)
	if i < 0 {
		i = len(cc.recs)
		if i == 0 {
			p.held[callee.ID/64] |= 1 << (callee.ID % 64)
		}
		cc.recs = append(cc.recs, callRec{caller: caller.ID, ctype: p.intern(callerType), method: p.intern(method)})
		cc.unsorted = true
		p.callRecs++
		if len(cc.idx) >= 2*len(cc.recs) {
			cc.place(p.names, i)
		} else {
			cc.buildIdx(p.names)
		}
	}
	cc.recs[i].count++
	cc.recs[i].bytes += size
	p.actorNet[callee.ID] += size
	p.messages++
}

// OnCPU implements actor.ProfilerHook.
func (p *Profiler) OnCPU(srv cluster.MachineID, a actor.Ref, typ string, cost sim.Duration) {
	p.ensure(a.ID)
	p.actorCPU[a.ID] += cost
}

// OnNet implements actor.ProfilerHook.
func (p *Profiler) OnNet(srv cluster.MachineID, a actor.Ref, typ string, size int64) {
	p.ensure(a.ID)
	p.actorNet[a.ID] += size
}

// Messages reports the total number of profiled messages.
func (p *Profiler) Messages() int64 { return p.messages }

// Window reports the current window's span so far.
func (p *Profiler) Window() sim.Duration { return sim.Duration(p.k.Now() - p.windowStart) }

// Reset closes the window: per-actor counters are zeroed in place (no
// reallocation) and every up machine's utilization window restarts. Call
// tables keep their keys, within a bound: a table holding more than twice
// the keys that were live in the window just closed drops its quiet ones,
// so callers that went away (or a stopped callee) do not pin memory. Only
// the callees in the held set are visited, in id order: a table without
// keys has nothing to evict or zero.
func (p *Profiler) Reset() {
	p.windowStart = p.k.Now()
	clear(p.actorCPU)
	clear(p.actorNet)
	for w, word := range p.held {
		for ; word != 0; word &= word - 1 {
			p.resetCalls(w*64 + bits.TrailingZeros64(word))
		}
	}
	for _, m := range p.c.Machines() {
		m.ResetWindow()
	}
}

// resetCalls closes the window on one callee's table, dropping the callee
// from the held set when eviction empties it.
func (p *Profiler) resetCalls(id int) {
	cc := &p.calls[id]
	live := 0
	for j := range cc.recs {
		if cc.recs[j].count > 0 {
			live++
		}
	}
	if len(cc.recs) > 2*live {
		p.callRecs -= len(cc.recs) - live
		// DeleteFunc keeps the order, so a sorted table stays sorted.
		cc.recs = slices.DeleteFunc(cc.recs, func(r callRec) bool { return r.count == 0 })
		cc.buildIdx(p.names)
	}
	for j := range cc.recs {
		cc.recs[j].count, cc.recs[j].bytes = 0, 0
	}
	if len(cc.recs) == 0 {
		p.held[id/64] &^= 1 << (id % 64)
	}
}

// Snapshot builds the rule-evaluation view for the given server scope (nil
// means all up servers). Actor metadata (type, placement, properties, pins)
// is included for every live actor so reference conditions resolve across
// servers; usage statistics are attributed per actor from this window.
func (p *Profiler) Snapshot(scope []cluster.MachineID) *epl.Snapshot {
	window := p.Window()
	snap := &p.snap
	// The walk below is in id order, so the rows it skips are the dead ones:
	// the gaps between visited ids and, up to the last walk's highest id,
	// the tail.
	end := 0
	if n := len(snap.Actors); n > 0 {
		end = int(snap.Actors[n-1].Ref.ID) + 1
	}
	snap.At = p.k.Now()
	snap.Window = window

	// Scope set: the servers whose actors get usage statistics attributed.
	// A MachineID is its machine's index in Machines().
	p.scope = append(p.scope[:0], make([]bool, len(p.c.Machines()))...)
	if scope == nil {
		for _, m := range p.c.Machines() {
			p.scope[m.ID] = m.Up()
		}
	} else {
		for _, id := range scope {
			if id >= 0 && int(id) < len(p.scope) {
				p.scope[id] = true
			}
		}
	}

	// Server list: in-scope up machines in id order. ServerInfo is freshly
	// allocated on purpose: the GEM's report table keeps *ServerInfo for up
	// to stalePeriods.
	snap.Servers = snap.Servers[:0]
	for _, m := range p.c.Machines() {
		if !p.scope[m.ID] || !m.Up() {
			continue
		}
		snap.Servers = append(snap.Servers, &epl.ServerInfo{
			ID:      m.ID,
			CPUPerc: m.CPUPercent(),
			MemPerc: m.MemPercent(),
			NetPerc: m.NetPercent(),
			VCPUs:   m.Type.VCPUs,
			MemMB:   m.Type.MemMB,
			NetMbps: m.Type.NetMbps,
			Up:      true,
		})
	}

	snap.Actors = slices.Grow(snap.Actors[:0], p.rt.NumActors())
	if cap(p.callBuf) < p.callRecs {
		p.callBuf = make([]epl.CallStat, 0, p.callRecs+p.callRecs/4+16)
	}
	p.callBuf = p.callBuf[:0]

	next := 0 // one past the last visited id
	p.rt.ForEachActor(func(info actor.Info) {
		m := p.c.Machine(info.Server)
		if m == nil {
			return
		}
		id := int(info.Ref.ID)
		ai := p.row(id)
		clear(p.rows[next:id])
		next = id + 1
		// Overwrite the whole row, so nothing of last period survives but the
		// Props map, which is cleared and refilled.
		props := ai.Props
		*ai = epl.ActorInfo{
			Ref:       info.Ref,
			Type:      info.Type,
			Server:    info.Server,
			MemBytes:  info.MemBytes,
			Pinned:    info.Pinned,
			LastMoved: info.LastMoved,
		}
		if len(info.Props) > 0 {
			if props == nil {
				props = make(map[string][]actor.Ref, len(info.Props))
			}
			clear(props)
			maps.Copy(props, info.Props)
			ai.Props = props
		}
		if m.Type.MemMB > 0 {
			ai.MemPerc = float64(ai.MemBytes) / float64(m.Type.MemMB*1024*1024) * 100
		}
		if p.scope[info.Server] && window > 0 {
			cpu, net := p.actorCPU[id], p.actorNet[id]
			ai.CPUTime = cpu
			ai.CPUPerc = float64(cpu) / (float64(window) * float64(m.Type.VCPUs)) * 100
			ai.NetBytes = net
			ai.NetPerc = float64(net) * 8 / 1e6 / window.Seconds() / m.Type.NetMbps * 100
		}
		// Call stats: the callee's table is kept in (method, callerType,
		// caller) order, re-sorted only when a key was added since the last
		// sort; its live records are copied into callBuf as CallStats, so the
		// snapshot does not alias accumulation state and never shows a key
		// nobody used this window.
		if cc := &p.calls[id]; len(cc.recs) > 0 {
			if cc.unsorted {
				p.sortCalls(cc.recs)
				cc.buildIdx(p.names) // sorting invalidated the indices
				cc.unsorted = false
			}
			start := len(p.callBuf)
			for _, r := range cc.recs {
				if r.count > 0 {
					p.callBuf = append(p.callBuf, epl.CallStat{CallerType: p.names[r.ctype], Caller: actor.Ref{ID: r.caller},
						Method: p.names[r.method], Count: r.count, Bytes: r.bytes})
				}
			}
			if n := len(p.callBuf); n > start {
				ai.Calls = p.callBuf[start:n:n]
			}
		}
		snap.Actors = append(snap.Actors, ai)
	})
	if next < end {
		clear(p.rows[next:end])
	}
	return snap.Index()
}

// row returns actor id's row. When the table is short it is sized from the
// accumulators, which cover every spawn the profiler was told of (ensure
// grows them for one it was not).
func (p *Profiler) row(id int) *epl.ActorInfo {
	if id >= len(p.rows) {
		p.ensure(actor.ID(id))
		rows := make([]epl.ActorInfo, len(p.actorCPU))
		copy(rows, p.rows)
		p.rows = rows
	}
	return &p.rows[id]
}

func (p *Profiler) sortCalls(recs []callRec) {
	slices.SortFunc(recs, func(a, b callRec) int {
		if a.method != b.method {
			return strings.Compare(p.names[a.method], p.names[b.method])
		}
		if a.ctype != b.ctype {
			return strings.Compare(p.names[a.ctype], p.names[b.ctype])
		}
		return cmp.Compare(a.caller, b.caller)
	})
}
