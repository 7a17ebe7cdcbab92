package epl

import (
	"slices"
	"sync/atomic"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// CallStat aggregates messages of one (caller, method) pair received by an
// actor within a profiling window.
type CallStat struct {
	CallerType string    // actor type name or actor.ClientCaller
	Caller     actor.Ref // zero when calls are aggregated per caller type
	Method     string
	Count      int64
	Bytes      int64
}

// ActorInfo is one actor's runtime information in a snapshot (the
// actorsRT of Alg. 1/2).
type ActorInfo struct {
	Ref    actor.Ref
	Type   string
	Server cluster.MachineID

	CPUPerc  float64 // share of its server's total CPU capacity (0-100)
	CPUTime  sim.Duration
	MemPerc  float64
	MemBytes int64
	NetPerc  float64
	NetBytes int64

	Props     map[string][]actor.Ref
	Calls     []CallStat
	Pinned    bool
	LastMoved sim.Time
}

// ServerInfo is one server's runtime information (the serverRT of Alg. 1/2).
type ServerInfo struct {
	ID      cluster.MachineID
	CPUPerc float64
	MemPerc float64
	NetPerc float64
	VCPUs   int
	MemMB   int64
	NetMbps float64 // NIC capacity
	Up      bool
}

// Res reads the named resource utilization.
func (s *ServerInfo) Res(r Resource) float64 {
	switch r {
	case CPU:
		return s.CPUPerc
	case Mem:
		return s.MemPerc
	case Net:
		return s.NetPerc
	}
	return 0
}

// ResVec returns the server's (cpu, mem, net) utilization vector, indexed
// by Resource: the unit the GEM's planning round works in.
func (s *ServerInfo) ResVec() [3]float64 {
	return [3]float64{s.CPUPerc, s.MemPerc, s.NetPerc}
}

// ResVec returns the actor's (cpu, mem, net) utilization vector: its
// projected contribution to a server already at the actor's current
// capacity scale.
func (a *ActorInfo) ResVec() [3]float64 {
	return [3]float64{a.CPUPerc, a.MemPerc, a.NetPerc}
}

// ResOf reads the actor's named resource utilization percent.
func (a *ActorInfo) ResOf(r Resource) float64 {
	switch r {
	case CPU:
		return a.CPUPerc
	case Mem:
		return a.MemPerc
	case Net:
		return a.NetPerc
	}
	return 0
}

// ResSize reads the actor's named resource in absolute units (cpu: µs of
// CPU time, mem/net: bytes).
func (a *ActorInfo) ResSize(r Resource) float64 {
	switch r {
	case CPU:
		return float64(a.CPUTime)
	case Mem:
		return float64(a.MemBytes)
	case Net:
		return float64(a.NetBytes)
	}
	return 0
}

// Snapshot is the profiling view a rule evaluation runs against: a LEM's
// local snapshot or a GEM's global one.
type Snapshot struct {
	At     sim.Time
	Window sim.Duration

	Actors  []*ActorInfo
	Servers []*ServerInfo

	// byID is a dense actor-ID index: actor ids are assigned sequentially
	// and never reused, so a slice indexed by id replaces the former
	// map[actor.Ref] lookup; byServer is the same over machine ids. Index()
	// reuses them (and byType's per-type slices) across calls, so a reused
	// snapshot re-indexes without reallocating.
	byID     []*ActorInfo
	byType   map[string][]*ActorInfo
	byServer []*ServerInfo

	// gen names the contents of the last indexing; views copy it.
	gen uint64
}

// generations hands out Snapshot generations, process-wide: two snapshots
// never share one, so neither a *Snapshot reused the next period nor a second
// snapshot at the same address can pass for an earlier one.
var generations atomic.Uint64

// Gen identifies what the snapshot held when it was last indexed; every
// WithServers view of it reports the same value, and every Index() or
// IndexServers() call draws a new one. Zero means never indexed. Whatever is
// derived from Actors alone (the planner's per-server buckets and affinity
// graph) may be cached under it and shared by all of a period's views.
func (s *Snapshot) Gen() uint64 { return s.gen }

// IndexServers is Index for a snapshot whose Actors list, ids and types are
// as last indexed: it keeps the actor indexes and re-indexes the servers.
func (s *Snapshot) IndexServers() *Snapshot {
	s.gen = generations.Add(1)
	s.byServer = indexServers(s.byServer[:0], s.Servers)
	return s
}

// Index builds lookup indexes; call after populating Actors/Servers. On a
// reused Snapshot the previous indexes are cleared and refilled in place.
func (s *Snapshot) Index() *Snapshot {
	var maxID actor.ID
	for _, a := range s.Actors {
		if a.Ref.ID > maxID {
			maxID = a.Ref.ID
		}
	}
	if n := int(maxID) + 1; cap(s.byID) < n {
		s.byID = make([]*ActorInfo, n)
	} else {
		s.byID = s.byID[:n]
		clear(s.byID)
	}
	if s.byType == nil {
		s.byType = make(map[string][]*ActorInfo)
	} else {
		for t, list := range s.byType {
			s.byType[t] = list[:0]
		}
	}
	for _, a := range s.Actors {
		s.byID[a.Ref.ID] = a
		s.byType[a.Type] = append(s.byType[a.Type], a)
	}
	return s.IndexServers()
}

// indexServers fills idx (reusing its capacity) so that idx[id] is the
// listed server with that id, nil for ids not listed.
func indexServers(idx, servers []*ServerInfo) []*ServerInfo {
	n := 0
	for _, srv := range servers {
		n = max(n, int(srv.ID)+1)
	}
	idx = slices.Grow(idx, n)[:n]
	clear(idx)
	for _, srv := range servers {
		idx[srv.ID] = srv
	}
	return idx
}

// WithServers derives a view over the same actors (sharing the actor
// indexes built by Index, so no per-actor work) but a different server
// list. The GEM uses it to evaluate global policies against its
// bounded-staleness server cache without re-indexing the whole fleet.
func (s *Snapshot) WithServers(servers []*ServerInfo) *Snapshot {
	v := &Snapshot{
		At:      s.At,
		Window:  s.Window,
		Actors:  s.Actors,
		Servers: servers,
		byID:    s.byID,
		byType:  s.byType,
		gen:     s.gen,
	}
	v.byServer = indexServers(nil, servers)
	return v
}

// Actor looks up one actor's info (nil if absent).
func (s *Snapshot) Actor(ref actor.Ref) *ActorInfo {
	if int(ref.ID) >= len(s.byID) {
		return nil
	}
	return s.byID[ref.ID]
}

// OfType returns actors of the given type; AnyType returns all.
func (s *Snapshot) OfType(t string) []*ActorInfo {
	if t == AnyType {
		return s.Actors
	}
	return s.byType[t]
}

// Server looks up one server's info (nil if absent).
func (s *Snapshot) Server(id cluster.MachineID) *ServerInfo {
	if id < 0 || int(id) >= len(s.byServer) {
		return nil
	}
	return s.byServer[id]
}
