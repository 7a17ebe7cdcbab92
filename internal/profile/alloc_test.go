package profile

import (
	"reflect"
	"sort"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// loggedCall is one OnMessage call as the runtime made it.
type loggedCall struct {
	callerType     string
	caller, callee actor.Ref
	method         string
	size           int64
}

// logHook sits between the runtime and the profiler and keeps a plain log
// of the current window's OnMessage calls, so the reference below owes
// nothing to the profiler's call table. The test clears log when it Resets.
type logHook struct {
	*Profiler
	log []loggedCall
}

func (h *logHook) OnMessage(srv cluster.MachineID, callerType string, caller, callee actor.Ref, calleeType, method string, size int64) {
	h.log = append(h.log, loggedCall{callerType, caller, callee, method, size})
	h.Profiler.OnMessage(srv, callerType, caller, callee, calleeType, method, size)
}

// naiveCalls aggregates the log into each callee's call list, in the
// (Method, CallerType, Caller.ID) order snapshots report.
func naiveCalls(log []loggedCall) map[actor.Ref][]epl.CallStat {
	type key struct {
		callee, caller     actor.Ref
		callerType, method string
	}
	agg := map[key]*epl.CallStat{}
	for _, c := range log {
		k := key{c.callee, c.caller, c.callerType, c.method}
		if agg[k] == nil {
			agg[k] = &epl.CallStat{CallerType: c.callerType, Caller: c.caller, Method: c.method}
		}
		agg[k].Count++
		agg[k].Bytes += c.size
	}
	calls := map[actor.Ref][]epl.CallStat{}
	for k, cs := range agg {
		calls[k.callee] = append(calls[k.callee], *cs)
	}
	for _, recs := range calls {
		sort.Slice(recs, func(i, j int) bool {
			a, b := &recs[i], &recs[j]
			if a.Method != b.Method {
				return a.Method < b.Method
			}
			if a.CallerType != b.CallerType {
				return a.CallerType < b.CallerType
			}
			return a.Caller.ID < b.Caller.ID
		})
	}
	return calls
}

// naiveSnapshot is the from-scratch snapshot build: one fresh ActorInfo and
// Props map per actor per call, call lists rebuilt from the window's log, and
// fresh lookup maps. Owing nothing to last period, it is the reference the
// row table is compared with, and the allocation pattern it replaced.
func naiveSnapshot(h *logHook) []*epl.ActorInfo {
	p := h.Profiler
	calls := naiveCalls(h.log)
	window := p.Window()
	scope := map[cluster.MachineID]bool{}
	for _, m := range p.c.Machines() {
		if m.Up() {
			scope[m.ID] = true
		}
	}
	var servers []*epl.ServerInfo
	for _, m := range p.c.Machines() {
		if !scope[m.ID] {
			continue
		}
		servers = append(servers, &epl.ServerInfo{
			ID: m.ID, CPUPerc: m.CPUPercent(), MemPerc: m.MemPercent(),
			NetPerc: m.NetPercent(), VCPUs: m.Type.VCPUs, MemMB: m.Type.MemMB, Up: true,
		})
	}
	var actors []*epl.ActorInfo
	p.rt.ForEachActor(func(info actor.Info) {
		m := p.c.Machine(info.Server)
		if m == nil {
			return
		}
		ai := &epl.ActorInfo{
			Ref: info.Ref, Type: info.Type, Server: info.Server,
			MemBytes: info.MemBytes, Pinned: info.Pinned, LastMoved: info.LastMoved,
			Props: map[string][]actor.Ref{},
		}
		for name, refs := range info.Props {
			ai.Props[name] = refs
		}
		if m.Type.MemMB > 0 {
			ai.MemPerc = float64(ai.MemBytes) / float64(m.Type.MemMB*1024*1024) * 100
		}
		id := int(info.Ref.ID)
		if scope[info.Server] && window > 0 && id < len(p.acct) {
			ai.CPUTime = p.acct[id].cpu
			ai.CPUPerc = float64(ai.CPUTime) / (float64(window) * float64(m.Type.VCPUs)) * 100
			ai.NetBytes = p.acct[id].net
			ai.NetPerc = float64(ai.NetBytes) * 8 / 1e6 / window.Seconds() / m.Type.NetMbps * 100
		}
		ai.Calls = calls[info.Ref]
		actors = append(actors, ai)
	})
	byRef := make(map[actor.Ref]*epl.ActorInfo, len(actors))
	byType := map[string][]*epl.ActorInfo{}
	for _, a := range actors {
		byRef[a.Ref] = a
		byType[a.Type] = append(byType[a.Type], a)
	}
	byServer := make(map[cluster.MachineID]*epl.ServerInfo, len(servers))
	for _, s := range servers {
		byServer[s.ID] = s
	}
	return actors
}

// tenKFleet builds a 10k-actor fleet with light messaging and sparse
// properties — the snapshot-construction workload of the scale experiments.
func tenKFleet(t *testing.T) *logHook {
	t.Helper()
	k := sim.New(1)
	c := cluster.New(k, 80, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	h := &logHook{Profiler: New(k, c, rt)}
	rt.SetProfiler(h)
	noop := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(50 * sim.Microsecond)
	})
	refs := make([]actor.Ref, 10_000)
	for i := range refs {
		refs[i] = rt.SpawnOn("Worker", noop, cluster.MachineID(i%80))
		if i%100 == 0 {
			rt.SetProp(refs[i], "peer", []actor.Ref{refs[0]})
		}
	}
	cl := actor.NewClient(rt, 0)
	for i := 0; i < 100; i++ {
		cl.Send(refs[i], "ping", nil, 256)
	}
	k.RunUntilIdle()
	return h
}

// At 10k actors, 1% of them carrying a property, a steady-state snapshot
// allocates its ServerInfos, one per up server, and nothing per actor: rows,
// their Props maps and the call buffer are all kept from the last call. That
// is at least 5x under the naive per-actor build (the acceptance bar for the
// million-actor fleet work; measured ratios are far higher).
func TestSnapshotAllocs5xUnderNaiveAt10k(t *testing.T) {
	h := tenKFleet(t)
	h.Snapshot(nil) // size the rows and give the property carriers their maps

	rows := testing.AllocsPerRun(3, func() { h.Snapshot(nil) })
	naive := testing.AllocsPerRun(3, func() { naiveSnapshot(h) })

	// Plus the visit closure when the race detector's instrumentation moves
	// it to the heap.
	if ceiling := float64(len(h.c.UpMachines()) + 1); rows > ceiling {
		t.Fatalf("steady Snapshot: %.0f allocs, ceiling %.0f (one ServerInfo per up server)", rows, ceiling)
	}
	if ratio := naive / rows; ratio < 5 {
		t.Fatalf("snapshot allocates too much: naive=%.0f rows=%.0f allocs/op (ratio %.1fx, want >=5x)",
			naive, rows, ratio)
	}
	t.Logf("allocs/op: naive=%.0f rows=%.0f", naive, rows)
}

// The row build must report exactly what the naive build reports.
func TestSnapshotMatchesNaiveReference(t *testing.T) {
	h := tenKFleet(t)
	requireMatchesNaive(t, h, h.Snapshot(nil))
}

// requireMatchesNaive fails unless snap reports, actor for actor and field
// for field, what the naive build reports for the same window.
func requireMatchesNaive(t *testing.T, h *logHook, snap *epl.Snapshot) {
	t.Helper()
	actors := naiveSnapshot(h)
	if len(snap.Actors) != len(actors) {
		t.Fatalf("actor count: rows %d, naive %d", len(snap.Actors), len(actors))
	}
	for i, a := range snap.Actors {
		got, want := *a, *actors[i]
		// Only an actor with properties gets a Props map; the naive build
		// gives every actor one.
		if len(got.Props) == 0 && len(want.Props) == 0 {
			got.Props = want.Props
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("actor %d diverges:\n rows  %+v\n naive %+v", i, got, want)
		}
	}
}
