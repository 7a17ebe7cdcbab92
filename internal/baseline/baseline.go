// Package baseline implements the non-PLASMA elasticity managers the paper
// compares against:
//
//   - Orleans-style management (§2.1, §5.4): equalize the number of actors
//     on each server;
//   - the "default rule" of §5.3 (Fig. 5): migrate actors with heavy
//     workload to an idle server, without application knowledge;
//   - the frequency-based colocation "default rule" of §5.7 (Fig. 11a):
//     co-locate actors that frequently interact with one another.
//
// Each manager is one per-period step, Tick, that plans from the EPR window
// the caller's period timer has just closed. The Mizan-style per-superstep
// vertex migrator lives with the PageRank application, since it operates
// below the actor level.
package baseline

import (
	"sort"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
)

// Orleans equalizes actor counts across servers each period, mimicking the
// paper's description of Orleans' elasticity management.
type Orleans struct {
	RT *actor.Runtime

	// Types restricts balancing to the listed actor types (nil = all).
	Types map[string]bool

	Migrations int
}

func (o *Orleans) covers(typ string) bool {
	return o.Types == nil || o.Types[typ]
}

// Tick runs one period: surplus actors move from over-count servers to
// under-count ones.
func (o *Orleans) Tick(snap *epl.Snapshot) {
	up := snap.Servers
	if len(up) < 2 {
		return
	}
	// Bucket managed actors by up server, in id order.
	perSrv := map[cluster.MachineID][]actor.Ref{}
	total := 0
	for _, ai := range snap.Actors {
		if o.covers(ai.Type) && snap.Server(ai.Server) != nil {
			perSrv[ai.Server] = append(perSrv[ai.Server], ai.Ref)
			total++
		}
	}
	target := total / len(up)
	// Move surplus actors from over-count servers to under-count ones.
	type srvCount struct {
		id cluster.MachineID
		n  int
	}
	var counts []srvCount
	for _, m := range up {
		counts = append(counts, srvCount{m.ID, len(perSrv[m.ID])})
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].n > counts[j].n })
	for i := 0; i < len(counts); i++ {
		src := &counts[i]
		for src.n > target+1 {
			dst := &counts[len(counts)-1]
			for j := len(counts) - 1; j > i; j-- {
				if counts[j].n < counts[len(counts)-1].n {
					dst = &counts[j]
				}
			}
			// Find the least-recently useful candidate: just the last one.
			cands := perSrv[src.id]
			moved := false
			for len(cands) > 0 {
				ref := cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				if o.RT.Pinned(ref) {
					continue
				}
				o.RT.Migrate(ref, dst.id, nil)
				o.Migrations++
				moved = true
				break
			}
			perSrv[src.id] = cands
			if !moved {
				break
			}
			src.n--
			dst.n++
			sort.Slice(counts, func(i, j int) bool { return counts[i].n > counts[j].n })
		}
	}
}

// The def-rule's trigger and pace: a server is busy above heavyTriggerCPU
// percent, and one period moves at most heavyMoves actors off it.
const (
	heavyTriggerCPU = 80
	heavyMoves      = 1
)

// HeavyMigrator is Fig. 5's def-rule: each period, migrate the actors with
// the heaviest CPU usage from the busiest server to the idlest one —
// without any application knowledge (so dependent actors stay behind).
type HeavyMigrator struct {
	RT *actor.Runtime

	Migrations int
}

// Tick runs one period: if the busiest server is over heavyTriggerCPU, its
// heaviest movable actors go to the idlest server.
func (h *HeavyMigrator) Tick(snap *epl.Snapshot) {
	if len(snap.Servers) < 2 {
		return
	}
	busiest, idlest := snap.Servers[0], snap.Servers[0]
	for _, s := range snap.Servers {
		if s.CPUPerc > busiest.CPUPerc {
			busiest = s
		}
		if s.CPUPerc < idlest.CPUPerc {
			idlest = s
		}
	}
	if busiest.CPUPerc < heavyTriggerCPU || busiest.ID == idlest.ID {
		return
	}
	var cands []*struct {
		ref actor.Ref
		cpu float64
	}
	for _, ai := range snap.Actors {
		if ai.Server != busiest.ID || ai.Pinned {
			continue
		}
		cands = append(cands, &struct {
			ref actor.Ref
			cpu float64
		}{ai.Ref, ai.CPUPerc})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cpu > cands[j].cpu })
	for i := 0; i < len(cands) && i < heavyMoves; i++ {
		h.RT.Migrate(cands[i].ref, idlest.ID, nil)
		h.Migrations++
	}
}

// freqThreshold is the per-window message count below which FreqColocator
// leaves a caller where it is.
const freqThreshold = 10

// FreqColocator is Fig. 11a's def-rule: each period, for each actor, find
// the peer it exchanged the most messages with; if they sit on different
// servers and the count reaches freqThreshold, migrate the caller to the
// callee's server. This is application-agnostic and can make poor choices
// (e.g. chasing a router that briefly sprays one session).
type FreqColocator struct {
	RT *actor.Runtime

	Migrations int
}

// Tick runs one period: each caller whose strongest edge crosses servers
// moves to its callee.
func (f *FreqColocator) Tick(snap *epl.Snapshot) {
	// Strongest cross-server edge per caller.
	type edge struct {
		callee actor.Ref
		count  int64
	}
	best := map[actor.Ref]edge{}
	for _, ai := range snap.Actors {
		for _, cs := range ai.Calls {
			if cs.Caller.Zero() {
				continue
			}
			if cs.Count > best[cs.Caller].count {
				best[cs.Caller] = edge{callee: ai.Ref, count: cs.Count}
			}
		}
	}
	callers := make([]actor.Ref, 0, len(best))
	for c := range best {
		callers = append(callers, c)
	}
	sort.Slice(callers, func(i, j int) bool { return callers[i].ID < callers[j].ID })
	for _, caller := range callers {
		e := best[caller]
		if e.count < freqThreshold {
			continue
		}
		srcSrv := f.RT.ServerOf(caller)
		dstSrv := f.RT.ServerOf(e.callee)
		if srcSrv < 0 || dstSrv < 0 || srcSrv == dstSrv || f.RT.Pinned(caller) {
			continue
		}
		f.RT.Migrate(caller, dstSrv, nil)
		f.Migrations++
	}
}
