package emr

import (
	"math/rand"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// pickTargetRef is the one-scan pickTarget the two-phase one replaced, kept
// unchanged as the reference it must match pick for pick
// (TestPickTargetMatchesReference).
func (m *Manager) pickTargetRef(ai *epl.ActorInfo, from int32, ax int, upper float64) (to int32, add [3]float64) {
	r := &m.rd
	pull := r.pull(ai.Ref.ID)
	to = -1
	bestAff, bestLoad := 0.0, 0.0
	// The mover's share is the same on every machine of one capacity, so a
	// homogeneous fleet rescales it once.
	var a, capA [3]float64
	known := false
	for s, id := range r.servers {
		if int32(s) == from {
			continue
		}
		if c := r.caps[s]; !known || c != capA {
			a, capA, known = shareOn(ai, r.caps[from], c), c, true
		}
		if !m.fits(s, a, ax, upper) {
			continue
		}
		aff, load := 0.0, r.proj[s][ax]
		if r.last == nil || r.last[id].heard == r.tick {
			aff = affTo(pull, id)
		}
		if to < 0 || aff > bestAff || (aff == bestAff && load < bestLoad) {
			to, add, bestAff, bestLoad = int32(s), a, aff, load
		}
	}
	return to, add
}

// refRound fabricates one round for the pick comparison: 3–10 servers of
// three capacities (two of them sharing a CPU capacity), some down, draining
// or reserved, some outside the view, each row of last fresh or stale (or
// last nil); loads on a 10-point grid and shares and call counts that are
// small integers, so equal loads and equal affinities are the rule; and
// every actor calling 0–3 random others, clients included. The round is set
// up by planResource with no intents: the packing set, projection and
// report table are in place, nothing is planned.
func refRound(t *testing.T, seed int64) (m *Manager, snap *epl.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := []cluster.InstanceType{
		{Name: "s", VCPUs: 1, MemMB: 2048, NetMbps: 250, SpeedFac: 1},
		{Name: "m", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1.5},
		{Name: "m2", VCPUs: 3, MemMB: 8192, NetMbps: 1000, SpeedFac: 1},
	}
	k := sim.New(seed)
	c := cluster.New(k, 0, types[0])
	nSrv := 3 + rng.Intn(8)
	for i := 0; i < nSrv; i++ {
		typ := types[rng.Intn(len(types))]
		c.ProvisionClass(typ, vmSpec(typ), nil)
	}
	rt := actor.NewRuntime(k, c)
	m = New(k, c, rt, nil, nil, Config{Period: sim.Second, MinResidence: 100 * sim.Millisecond})
	k.Run(sim.Time(sim.Second))

	const tick = 3
	snap = &epl.Snapshot{}
	last := make([]lastReport, nSrv)
	var scope []cluster.MachineID
	for i := 0; i < nSrv; i++ {
		id := cluster.MachineID(i)
		grid := func(n int) float64 { return float64(10 * rng.Intn(n)) }
		srv := &epl.ServerInfo{ID: id, CPUPerc: grid(8), MemPerc: grid(9), NetPerc: grid(8)}
		down := false // a down server is absent from the view
		switch rng.Intn(12) {
		case 0:
			down = true
		case 1:
			m.srv(id).draining = true
		case 2:
			m.srv(id).owner = actor.Ref{ID: 1 << 40}
		}
		if rng.Intn(6) != 0 && !down {
			scope = append(scope, id)
		}
		last[i].heard = tick - rng.Intn(2)
		snap.Servers = append(snap.Servers, srv)
	}
	var actors []*epl.ActorInfo
	for i := 0; i < nSrv; i++ {
		for n := rng.Intn(7); n > 0; n-- {
			id := cluster.MachineID(i)
			ai := &epl.ActorInfo{Ref: actor.Ref{ID: actor.ID(len(actors) + 1)}, Type: "A", Server: id,
				CPUPerc: float64(rng.Intn(13)), MemPerc: float64(rng.Intn(10)), NetPerc: float64(rng.Intn(7))}
			if rng.Intn(8) == 0 {
				ai.MemPerc = 60 // heavy on an axis no pick here plans: blocks it off-axis
			}
			ai.MemBytes = int64(ai.MemPerc / 100 * float64(c.Machine(id).Type.MemMB<<20))
			actors = append(actors, ai)
		}
	}
	for _, ai := range actors {
		for n := rng.Intn(4); n > 0; n-- {
			var caller actor.Ref // a client, now and then
			if rng.Intn(8) != 0 {
				caller = actors[rng.Intn(len(actors))].Ref
			}
			ai.Calls = append(ai.Calls, epl.CallStat{CallerType: "A", Caller: caller, Method: "m", Count: int64(1 + rng.Intn(3))})
		}
	}
	snap.Actors = actors
	snap.Index()
	if rng.Intn(4) == 0 {
		last = nil // every scoped server reported this period
	}
	m.planResource(nil, last, within(snap, scope), &epl.Intents{}, 0, tick)
	return m, snap
}

// The two-phase pickTarget against the one-scan reference over 2,000 seeded
// rounds of six picks each, with moves planned in between so later picks see
// a changed projection and peers resolved to their planned destinations.
// Every pick must return the same (slot, add). The counters make sure the
// generator reaches what the phases could get wrong.
func TestPickTargetMatchesReference(t *testing.T) {
	var picks, nowhere, offAxis, affWon, staleSeen, onFrom, outOfScope, stackedPeers int
	for seed := int64(1); seed <= 2000; seed++ {
		m, snap := refRound(t, seed)
		r := &m.rd
		if len(r.servers) == 0 || len(snap.Actors) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(-seed))
		for p := 0; p < 6; p++ {
			ai := snap.Actors[rng.Intn(len(snap.Actors))]
			from := r.slot[ai.Server]
			if from < 0 {
				from = int32(rng.Intn(len(r.servers)))
			}
			ax := rng.Intn(3)
			upper := float64(30 + 10*rng.Intn(7))
			wantTo, wantAdd := m.pickTargetRef(ai, from, ax, upper)
			to, add := m.pickTarget(ai, from, ax, upper)
			if to != wantTo || add != wantAdd {
				t.Fatalf("seed %d pick %d (actor %d from slot %d, axis %d, upper %v): got (%d, %v), reference (%d, %v)",
					seed, p, ai.Ref.ID, from, ax, upper, to, add, wantTo, wantAdd)
			}
			picks++

			pull := r.pull(ai.Ref.ID)
			seen := map[cluster.MachineID]bool{}
			for _, pl := range pull {
				switch s := r.slot[pl.id]; {
				case s == from:
					onFrom++
				case s < 0:
					outOfScope++
				case r.last != nil && r.last[pl.id].heard != r.tick:
					staleSeen++
				}
				if seen[pl.id] {
					stackedPeers++
				}
				seen[pl.id] = true
			}
			if to < 0 {
				nowhere++
				for s := range r.servers {
					sh := shareOn(ai, r.caps[from], r.caps[s])
					if int32(s) != from && r.proj[s][ax]+sh[ax] <= upper {
						offAxis++ // the planned axis had room somewhere
						break
					}
				}
				continue
			}
			if id := r.servers[to]; (r.last == nil || r.last[id].heard == r.tick) && affTo(pull, id) > 0 {
				affWon++
			}
			if rng.Intn(2) == 0 {
				r.move(ai, from, to, add)
			}
		}
	}
	t.Logf("%d picks: %d fit nowhere (%d blocked off the planned axis), %d won on affinity; peers on stale %d, on from %d, out of scope %d, stacked %d",
		picks, nowhere, offAxis, affWon, staleSeen, onFrom, outOfScope, stackedPeers)
	for _, c := range []struct {
		what string
		n    int
	}{{"fit nowhere", nowhere}, {"blocked off-axis", offAxis}, {"won on affinity", affWon},
		{"peer on a stale server", staleSeen}, {"peer on from", onFrom}, {"peer out of scope", outOfScope},
		{"peers stacked on one server", stackedPeers}} {
		if c.n < 20 {
			t.Errorf("only %d picks with %s: the generator is not exercising the phases", c.n, c.what)
		}
	}
}
