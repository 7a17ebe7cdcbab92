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
// and each actor keeps one ActorInfo row, with its own Props map, that
// Snapshot refreshes in place only when it can have changed: the actor had
// usage, or the runtime's change set names it (spawned, stopped, moved, or
// given properties, memory or a pin).
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
	live     int32 // records with count > 0: the window's keys
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
// refreshes them in place. Callers take one snapshot per elasticity period
// and finish with it inside the period. The rows are read-only: one the next
// call does not refresh keeps what it holds, a caller's write included. The
// one write allowed is the EMR tick's Pinned patch, which stores the
// runtime's own flag for an actor Pin has just marked. The ServerInfos are
// allocated afresh each call, so they may be kept.
type Profiler struct {
	k  *sim.Kernel
	c  *cluster.Cluster
	rt *actor.Runtime

	windowStart sim.Time

	// Dense per-actor state, indexed by actor id. These slices and the
	// bitmaps below grow in lockstep (ensure), at spawn time via OnSpawn;
	// Reset zeroes the counters in place.
	actorCPU []sim.Duration
	actorNet []int64
	calls    []calleeCalls
	// held is the set of callees whose call tables hold keys, one bit per
	// actor id: OnMessage sets a callee's bit with its first key, Reset
	// clears it when eviction empties the table, and walks only the set bits.
	// (A list of ids did the same but, grown by append to 131k callees, cost
	// fleet_control 5 MB of allocation; the bitmap is 16 KB.)
	held []uint64

	// The rows the next Snapshot refreshes: marks holds the usage marks,
	// set by OnMessage (on the callee), OnCPU and OnNet, and the rows whose
	// actors had usage when last refreshed; meta takes the runtime's change
	// set, whose rows get their metadata refreshed too.
	marks, meta []uint64

	// names interns the actor type and method names callRecs refer to.
	names []string

	callRecs int   // records held across all call tables, live or quiet
	messages int64 // total messages observed (all time), for overhead tests

	// What Snapshot hands out, refreshed in place by each call: one row per
	// actor id (a row of an id with no live actor holds nothing), the
	// snapshot listing the live rows, and the buffer their Calls slice.
	rows    []epl.ActorInfo
	snap    epl.Snapshot
	callBuf []epl.CallStat
	// The scope sets of this call and the last, indexed by MachineID.
	scope, lastScope []bool
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

// ensure grows the dense per-actor slices to cover id, in whole bitmap
// words, so that the bitmaps and the slices cover the same ids.
func (p *Profiler) ensure(id actor.ID) {
	n := int(id) + 1
	if n <= len(p.actorCPU) {
		return
	}
	n = (max(n, 2*len(p.actorCPU)) + 63) &^ 63
	p.actorCPU = grow(p.actorCPU, n)
	p.actorNet = grow(p.actorNet, n)
	p.calls = grow(p.calls, n)
	p.held = grow(p.held, n/64)
	p.marks = grow(p.marks, n/64)
	p.meta = grow(p.meta, n/64)
}

// grow returns s extended with zeros to length n, in an array of exactly
// that size (append rounds up); a longer s is returned as is.
func grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	t := make([]T, n)
	copy(t, s)
	return t
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
	if cc.recs[i].count == 0 {
		cc.live++
	}
	cc.recs[i].count++
	cc.recs[i].bytes += size
	p.actorNet[callee.ID] += size
	p.marks[callee.ID/64] |= 1 << (callee.ID % 64)
	p.messages++
}

// OnCPU implements actor.ProfilerHook.
func (p *Profiler) OnCPU(srv cluster.MachineID, a actor.Ref, typ string, cost sim.Duration) {
	p.ensure(a.ID)
	p.actorCPU[a.ID] += cost
	p.marks[a.ID/64] |= 1 << (a.ID % 64)
}

// OnNet implements actor.ProfilerHook.
func (p *Profiler) OnNet(srv cluster.MachineID, a actor.Ref, typ string, size int64) {
	p.ensure(a.ID)
	p.actorNet[a.ID] += size
	p.marks[a.ID/64] |= 1 << (a.ID % 64)
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
	live := int(cc.live)
	cc.live = 0
	if len(cc.recs) > 2*live {
		p.callRecs -= len(cc.recs) - live
		// DeleteFunc keeps the order, so a sorted table stays sorted. A table
		// quiet all window is emptied without reading its records.
		if live == 0 {
			cc.recs = cc.recs[:0]
		} else {
			cc.recs = slices.DeleteFunc(cc.recs, func(r callRec) bool { return r.count == 0 })
		}
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
//
// Only marked rows are refreshed; the first call, and a call whose scope set
// differs from the last one's, marks every row. The actor list and its
// indexes are rebuilt only when a refreshed row was born or died, or the
// rows grew.
func (p *Profiler) Snapshot(scope []cluster.MachineID) *epl.Snapshot {
	window := p.Window()
	snap := &p.snap
	snap.At = p.k.Now()
	snap.Window = window

	// Scope set: the servers whose actors get usage statistics attributed.
	// A MachineID is its machine's index in Machines().
	p.scope, p.lastScope = p.lastScope, p.scope
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

	// The metadata marks cover every id the runtime issued; the
	// accumulators, the usage marks and the rows cover the metadata marks.
	p.meta = p.rt.TakeChanged(p.meta)
	if n := 64 * len(p.meta); n > len(p.actorCPU) {
		p.ensure(actor.ID(n - 1))
	}
	reindex := len(p.rows) < len(p.actorCPU)
	p.rows = grow(p.rows, len(p.actorCPU))
	if !slices.Equal(p.scope, p.lastScope) {
		for w := range p.meta {
			p.meta[w] = ^uint64(0)
		}
	}

	if cap(p.callBuf) < p.callRecs {
		p.callBuf = make([]epl.CallStat, 0, p.callRecs+p.callRecs/4+16)
	}
	p.callBuf = p.callBuf[:0]
	for w, meta := range p.meta {
		word := meta | p.marks[w]
		p.meta[w], p.marks[w] = 0, 0
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			id := w*64 + bits.TrailingZeros64(word)
			ai := &p.rows[id]
			if listed := ai.Ref.ID != 0; meta&bit != 0 && p.refreshMeta(ai, id) != listed {
				reindex = true // born or died
			}
			if ai.Ref.ID == 0 {
				continue // no live actor: nothing to show
			}
			p.refreshUsage(ai, window)
			// Usage is carried: the next call refreshes the row again, to
			// show the window then, or its zeroing by Reset.
			if p.actorCPU[id] != 0 || p.actorNet[id] != 0 || ai.Calls != nil {
				p.marks[w] |= bit
			}
		}
	}
	if !reindex {
		return snap.IndexServers()
	}
	snap.Actors = slices.Grow(snap.Actors[:0], p.rt.NumActors())
	for id := range p.rows {
		if p.rows[id].Ref.ID != 0 {
			snap.Actors = append(snap.Actors, &p.rows[id])
		}
	}
	return snap.Index()
}

// refreshMeta rewrites the whole row from the runtime's metadata, usage
// zeroed, and reports whether the actor is alive. A dead actor's row is
// zeroed; a live one keeps its Props map, cleared and refilled.
func (p *Profiler) refreshMeta(ai *epl.ActorInfo, id int) bool {
	info, ok := p.rt.Lookup(actor.Ref{ID: actor.ID(id)})
	m := p.c.Machine(info.Server)
	if !ok || m == nil {
		if ai.Ref.ID != 0 { // an unused row is left untouched, its page unwritten
			*ai = epl.ActorInfo{}
		}
		return false
	}
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
	return true
}

// refreshUsage rewrites a live row's usage fields from this window.
func (p *Profiler) refreshUsage(ai *epl.ActorInfo, window sim.Duration) {
	id := ai.Ref.ID
	ai.CPUTime, ai.CPUPerc, ai.NetBytes, ai.NetPerc, ai.Calls = 0, 0, 0, 0, nil
	if m := p.c.Machine(ai.Server); p.scope[ai.Server] && window > 0 {
		cpu, net := p.actorCPU[id], p.actorNet[id]
		ai.CPUTime = cpu
		ai.CPUPerc = float64(cpu) / (float64(window) * float64(m.Type.VCPUs)) * 100
		ai.NetBytes = net
		ai.NetPerc = float64(net) * 8 / 1e6 / window.Seconds() / m.Type.NetMbps * 100
	}
	// Call stats: the callee's table is kept in (method, callerType, caller)
	// order, re-sorted only when a key was added since the last sort; its
	// live records are copied into callBuf as CallStats, so the snapshot does
	// not alias accumulation state and never shows a key nobody used this
	// window. A row not refreshed shows no calls, so callBuf starts empty.
	if cc := &p.calls[id]; cc.live > 0 {
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
		n := len(p.callBuf)
		ai.Calls = p.callBuf[start:n:n]
	}
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
