package profile

import (
	"fmt"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// The stale-row differential: Snapshot refreshes a row only when something
// marked it, so a change that fails to mark one shows last period's value.
// Ten periods change the profile's shape — call lists grow and shrink,
// callees go quiet, handlers rewrite their properties and memory, actors
// migrate, die and are born, properties are rewritten, actors are pinned
// and unpinned — and every one of those metadata changes also lands on
// actors that hear nothing for many windows, so only the runtime's change
// set can bring their rows up to date. Period 9 crashes a server whose
// residents were busy, so their CPU and net fields must fall to zero;
// period 10 crashes, recovers and repairs another inside one window, so the
// scope does not change and only the re-homed actors' marks refresh them.
// Between periods the test makes the one write the Profiler contract
// allows, the EMR tick's Pinned patch, and every period's snapshot must
// still equal the naive from-scratch build field for field.
func TestSnapshotRowsMatchNaiveAcrossPeriods(t *testing.T) {
	k := sim.New(7)
	typ := cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1}
	c := cluster.New(k, 4, typ)
	rt := actor.NewRuntime(k, c)
	h := &logHook{Profiler: New(k, c, rt)}
	rt.SetProfiler(h)

	var refs, quiet []actor.Ref
	// A chatter burns CPU and forwards to fanout peers picked by the
	// period, so every window has different (caller, method) pairs, and
	// rewrites its own properties and memory as it goes.
	fanout, period := 1, 0
	seen := map[actor.ID][]actor.Ref{} // each chatter's growing "seen" property
	chatter := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(2 * sim.Millisecond)
		if msg.Method == "fan" {
			for i := 0; i < fanout; i++ {
				ctx.Send(refs[(int(ctx.Self().ID)+i)%len(refs)], fmt.Sprintf("m%d", i), nil, 64)
			}
			switch (int(ctx.Self().ID) + period) % 5 {
			case 0:
				ctx.SetProp("next", []actor.Ref{refs[period%len(refs)]})
			case 1:
				self := ctx.Self().ID
				seen[self] = append(seen[self], quiet[period%len(quiet)])
				ctx.SetProp("seen", seen[self])
			case 2:
				ctx.SetMemSize(int64(period) << 20)
			}
		}
	})
	for i := 0; i < 12; i++ {
		refs = append(refs, rt.SpawnOn("Worker", chatter, cluster.MachineID(i%2)))
	}
	// Quiet actors never hear a message: only marks refresh their rows.
	for i := 0; i < 16; i++ {
		quiet = append(quiet, rt.SpawnOn("Quiet", chatter, cluster.MachineID(i%4)))
	}
	cl := actor.NewClient(rt, 3)

	calls, props, busyOn0, pinned, recovered := 0, 0, 0, 0, 0
	for period = 1; period <= 10; period++ {
		fanout = 1 + period%4
		for i, r := range refs {
			if rt.Exists(r) && (i+period)%3 != 0 {
				cl.Send(r, "fan", nil, 128)
			}
		}
		q := quiet[period]
		switch {
		case period == 9:
			c.Fail(0)
		case period == 10:
			c.Fail(1)
			recovered = rt.RecoverMachine(1)
			c.Repair(1)
		case period%4 == 0:
			rt.Stop(refs[period])
			rt.Stop(q)
		case period%4 == 1:
			rt.Migrate(refs[period], cluster.MachineID(2+period%2), nil)
			rt.Migrate(q, cluster.MachineID((int(rt.ServerOf(q))+1)%4), nil)
		case period%4 == 2:
			rt.SetProp(refs[period], "peer", []actor.Ref{refs[0], refs[period+1]})
			rt.SetProp(q, "peer", []actor.Ref{refs[0]})
		case period%4 == 3:
			refs = append(refs, rt.SpawnOn("Late", chatter, 3))
			rt.SetProp(refs[period-1], "peer", nil)
			rt.SpawnOn("Quiet", chatter, 2)
			rt.SetProp(quiet[period-1], "peer", nil)
		}
		rt.Unpin(quiet[period+1]) // pinned two periods ago
		k.Run(sim.Time(period) * sim.Time(sim.Second))

		snap := h.Snapshot(nil)
		requireMatchesNaive(t, h, snap)
		for _, a := range snap.Actors {
			calls += len(a.Calls)
			props += len(a.Props)
			if period == 8 && a.Server == 0 && a.CPUPerc > 0 {
				busyOn0++
			}
		}
		// The Pinned patch: the runtime's own flag, for an actor Pin has
		// just marked.
		for _, r := range []actor.Ref{quiet[period+3], refs[period%len(refs)]} {
			rt.Pin(r)
			if a := snap.Actor(r); a != nil {
				a.Pinned = rt.Pinned(r)
				pinned++
			}
		}
		h.Reset()
		h.log = h.log[:0]
	}
	if calls == 0 || props == 0 || busyOn0 == 0 || pinned == 0 || recovered == 0 || rt.Migrations() < 4 {
		t.Fatalf("the scenario is vacuous: %d call stats, %d properties, %d busy residents of the crashed server, %d pins patched, %d recovered, %d migrations",
			calls, props, busyOn0, pinned, recovered, rt.Migrations())
	}
}

// A stopped actor's row releases what it holds at the next Snapshot: over ten
// periods of spawning and stopping actors that carry properties and hear
// calls, no row outside the snapshot keeps a Props map or a Calls slice.
func TestDeadRowsReleased(t *testing.T) {
	const periods, perPeriod = 10, 100
	k := sim.New(5)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	p := New(k, c, rt)
	nop := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) { ctx.Use(sim.Microsecond) })
	cl := actor.NewClient(rt, 0)

	var live []actor.Ref
	for period := 1; period <= periods; period++ {
		for i := 0; i < perPeriod; i++ {
			ref := rt.SpawnOn("W", nop, cluster.MachineID(i%4))
			rt.SetProp(ref, "peer", []actor.Ref{ref})
			cl.Send(ref, "m", nil, 8)
			live = append(live, ref)
		}
		k.Run(sim.Time(period) * sim.Time(sim.Second))
		p.Snapshot(nil)
		p.Reset()
		// Stop every other live actor, the newest included, so dead rows sit
		// both between live ones and past the last.
		kept := live[:0]
		for i, ref := range live {
			if i%2 == 0 {
				kept = append(kept, ref)
			} else {
				rt.Stop(ref)
			}
		}
		live = kept
		rt.Stop(live[len(live)-1])
		live = live[:len(live)-1]
	}
	snap := p.Snapshot(nil)
	if len(snap.Actors) != len(live) {
		t.Fatalf("snapshot lists %d actors, %d are live", len(snap.Actors), len(live))
	}
	outside := 0
	for id := range p.rows {
		row := &p.rows[id]
		if snap.Actor(actor.Ref{ID: actor.ID(id)}) == row {
			continue
		}
		if row.Props != nil || row.Calls != nil {
			t.Fatalf("row %d of a stopped actor holds props %v, calls %v", id, row.Props, row.Calls)
		}
		outside++
	}
	if stopped := periods*perPeriod - len(live); outside < stopped {
		t.Fatalf("%d rows outside the snapshot, %d actors stopped", outside, stopped)
	}
}
