package emr

import (
	"math/rand"
	"slices"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// randomFleet fabricates one planning problem from a seed: servers of three
// instance types, some down, draining, dedicated to a stranger, outside
// the GEM's scope or known only from a cached report; actors of two types with random (cpu, mem, net) shares,
// some pinned, some moved too recently, some chatting; and two or three
// overlapping balance intents plus up to two reserve intents.
func randomFleet(t *testing.T, seed int64) (m *Manager, scope []cluster.MachineID, fresh []lastReport, snap *epl.Snapshot, in *epl.Intents) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := []cluster.InstanceType{
		{Name: "s", VCPUs: 1, MemMB: 2048, NetMbps: 250, SpeedFac: 1},
		{Name: "m", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1.5},
		{Name: "l", VCPUs: 4, MemMB: 16384, NetMbps: 10000, SpeedFac: 2},
	}
	k := sim.New(seed)
	c := cluster.New(k, 0, types[0])
	nSrv := 4 + rng.Intn(9)
	for i := 0; i < nSrv; i++ {
		typ := types[rng.Intn(len(types))]
		c.ProvisionClass(typ, vmSpec(typ), nil)
	}
	rt := actor.NewRuntime(k, c)
	m = New(k, c, rt, nil, nil, Config{Period: sim.Second, MinResidence: 100 * sim.Millisecond})
	k.Run(sim.Time(sim.Second))

	snap = &epl.Snapshot{At: k.Now(), Window: sim.Second}
	fresh = make([]lastReport, nSrv) // heard == 1: reported in the round's period
	nextID := actor.ID(1)
	for i := 0; i < nSrv; i++ {
		id := cluster.MachineID(i)
		srv := &epl.ServerInfo{ID: id,
			CPUPerc: 10 * rng.Float64(), MemPerc: 10 * rng.Float64(), NetPerc: 10 * rng.Float64()}
		down := false // a down server is absent from the view
		switch rng.Intn(10) {
		case 0:
			down = true
		case 1:
			m.srv(id).draining = true
		case 2:
			m.srv(id).owner = actor.Ref{ID: 1 << 40}
		}
		if rng.Intn(8) != 0 && !down {
			scope = append(scope, id)
			if rng.Intn(5) != 0 {
				fresh[id].heard = 1
			}
		}
		hot := rng.Intn(3) // 0 light, 1 mid, 2 heavy
		for n := rng.Intn(5 + 4*hot); n > 0; n-- {
			ai := &epl.ActorInfo{
				Ref: actor.Ref{ID: nextID}, Type: []string{"A", "B"}[rng.Intn(2)], Server: id,
				// Whole-number shares: ties (and zeros) are common, so the
				// id tiebreaks are what the shuffle check exercises.
				CPUPerc: float64(rng.Intn(13)), MemPerc: float64(rng.Intn(10)), NetPerc: float64(rng.Intn(7)),
				Pinned: rng.Intn(12) == 0,
			}
			ai.MemBytes = int64(ai.MemPerc / 100 * float64(c.Machine(id).Type.MemMB<<20))
			if rng.Intn(10) == 0 {
				ai.LastMoved = k.Now() // not rested
			}
			if nextID > 1 && rng.Intn(3) == 0 {
				ai.Calls = append(ai.Calls, epl.CallStat{CallerType: "A", Method: "m",
					Caller: actor.Ref{ID: 1 + actor.ID(rng.Intn(int(nextID)-1))}, Count: int64(1 + rng.Intn(50))})
			}
			nextID++
			srv.CPUPerc += ai.CPUPerc
			srv.MemPerc += ai.MemPerc
			srv.NetPerc += ai.NetPerc
			snap.Actors = append(snap.Actors, ai)
		}
		snap.Servers = append(snap.Servers, srv)
	}
	snap.Index()

	nan := nan()
	pool := []epl.BalanceIntent{
		{Types: []string{"A", "B"}, Res: epl.CPU, Upper: 70, Lower: 40},
		{Types: []string{"A"}, Res: epl.Mem, Upper: 60, Lower: 30},
		{Types: []string{"B", "A"}, Res: epl.Net, Upper: 50, Lower: nan},
		{Types: []string{"B"}, Res: epl.CPU, Upper: nan, Lower: 35},
		{Types: []string{epl.AnyType}, Res: epl.CPU, Upper: 55, Lower: 45},
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	in = &epl.Intents{Balance: pool[:2+rng.Intn(2)]}
	for n := rng.Intn(3); n > 0 && len(snap.Actors) > 0; n-- {
		in.Reserve = append(in.Reserve, epl.ReserveIntent{Actor: snap.Actors[rng.Intn(len(snap.Actors))].Ref, Res: epl.CPU})
	}
	return m, scope, fresh, snap, in
}

// Over random fleets the round must only ever plan placeable moves, never
// plan an actor twice, leave every balance target fitting on all three axes
// once all of the round's moves have landed, and be a pure function of its
// inputs — the order of snap.Actors included.
func TestPlanRoundProperties(t *testing.T) {
	moves := 0
	for seed := int64(1); seed <= 60; seed++ {
		m, scope, fresh, snap, in := randomFleet(t, seed)
		acts, _, _, _, _ := m.planResource(fresh, within(snap, scope), in, 0, 1)
		moves += len(acts)

		dedicated := map[cluster.MachineID]bool{}
		for _, a := range acts {
			if a.Kind == epl.KindReserve {
				if dedicated[a.Trg] {
					t.Fatalf("seed %d: server %d dedicated twice in one round", seed, a.Trg)
				}
				dedicated[a.Trg] = true
			}
		}
		proj := map[cluster.MachineID][3]float64{}
		for _, s := range snap.Servers {
			proj[s.ID] = s.ResVec()
		}
		seen := map[actor.Ref]bool{}
		for _, a := range acts {
			if seen[a.Actor] {
				t.Fatalf("seed %d: actor %v planned twice: %+v", seed, a.Actor, acts)
			}
			seen[a.Actor] = true
			ai, trg := snap.Actor(a.Actor), snap.Server(a.Trg)
			switch {
			case ai == nil || ai.Server != a.Src || a.Src == a.Trg:
				t.Fatalf("seed %d: malformed action %+v", seed, a)
			case trg == nil || !slices.Contains(scope, a.Trg):
				t.Fatalf("seed %d: %+v targets a server outside the scope (down servers included)", seed, a)
			case m.srv(a.Trg).draining:
				t.Fatalf("seed %d: %+v targets a draining server", seed, a)
			case a.Kind == epl.KindBalance && dedicated[a.Trg]:
				t.Fatalf("seed %d: %+v targets a server dedicated this tick", seed, a)
			}
			if !m.srv(a.Trg).owner.Zero() {
				t.Fatalf("seed %d: %+v targets a server reserved for someone else", seed, a)
			}
			add := shareOn(ai, m.capacity(a.Src), m.capacity(a.Trg))
			from, to := proj[a.Src], proj[a.Trg]
			for x, v := range ai.ResVec() {
				from[x] -= v
				to[x] += add[x]
			}
			proj[a.Src], proj[a.Trg] = from, to
		}
		for _, a := range acts {
			// Every intent's upper bound is at most the admission bound here.
			for x, l := range proj[a.Trg] {
				if a.Kind == epl.KindBalance && l > epl.DefaultUpper+1e-9 {
					t.Fatalf("seed %d: %+v leaves its target at %.2f on axis %d, over the admission bound", seed, a, l, x)
				}
			}
		}

		if again, _, _, _, _ := m.planResource(fresh, within(snap, scope), in, 0, 1); !slices.Equal(acts, again) {
			t.Fatalf("seed %d: the same inputs planned differently twice:\n%+v\n%+v", seed, acts, again)
		}
		shuffled := &epl.Snapshot{At: snap.At, Window: snap.Window, Servers: snap.Servers, Actors: slices.Clone(snap.Actors)}
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled.Actors), func(i, j int) {
			shuffled.Actors[i], shuffled.Actors[j] = shuffled.Actors[j], shuffled.Actors[i]
		})
		if again, _, _, _, _ := m.planResource(fresh, within(shuffled.Index(), scope), in, 0, 1); !slices.Equal(acts, again) {
			t.Fatalf("seed %d: shuffling snap.Actors changed the plan:\n%+v\n%+v", seed, acts, again)
		}
	}
	if moves < 60 {
		t.Fatalf("only %d moves over 60 fleets; the generator is not exercising the round", moves)
	}
}
