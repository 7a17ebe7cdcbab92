package profile

import (
	"fmt"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// reuseRun drives a fleet whose profile changes shape every period — call
// lists grow and shrink, actors migrate, die and are born, properties are
// rewritten — and renders each period's snapshot. With noReuse every
// snapshot is built into fresh memory; the double-buffered arena must
// render identically.
func reuseRun(t *testing.T, noReuse bool) []string {
	t.Helper()
	k := sim.New(7)
	typ := cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1}
	c := cluster.New(k, 4, typ)
	rt := actor.NewRuntime(k, c)
	p := New(k, c, rt)
	p.noReuse = noReuse

	var refs []actor.Ref
	// A chatter burns CPU and forwards to fanout peers picked by the
	// period, so every window has different (caller, method) pairs.
	fanout := 1
	chatter := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(2 * sim.Millisecond)
		if msg.Method == "fan" {
			for i := 0; i < fanout; i++ {
				ctx.Send(refs[(int(ctx.Self().ID)+i)%len(refs)], fmt.Sprintf("m%d", i), nil, 64)
			}
		}
	})
	for i := 0; i < 12; i++ {
		refs = append(refs, rt.SpawnOn("Worker", chatter, cluster.MachineID(i%2)))
	}
	cl := actor.NewClient(rt, 3)

	var out []string
	for period := 1; period <= 8; period++ {
		fanout = 1 + period%4
		for i, r := range refs {
			if rt.Exists(r) && (i+period)%3 != 0 {
				cl.Send(r, "fan", nil, 128)
			}
		}
		switch period % 4 {
		case 0:
			rt.Stop(refs[period])
		case 1:
			rt.Migrate(refs[period], cluster.MachineID(2+period%2), nil)
		case 2:
			rt.SetProp(refs[period], "peer", []actor.Ref{refs[0], refs[period+1]})
		case 3:
			refs = append(refs, rt.SpawnOn("Late", chatter, 3))
			rt.SetProp(refs[period-1], "peer", nil)
		}
		k.Run(sim.Time(period) * sim.Time(sim.Second))

		snap := p.Snapshot(nil)
		var b strings.Builder
		for _, s := range snap.Servers {
			fmt.Fprintf(&b, "%+v\n", *s)
		}
		for _, a := range snap.Actors {
			fmt.Fprintf(&b, "%+v\n", *a)
		}
		out = append(out, b.String())
		p.Reset()
	}
	return out
}

// The arena-reuse differential: over periods whose snapshots differ in every
// dimension the arena recycles (ActorInfo slots, call lists, property maps,
// the indexes), the pooled path and the naive fresh-allocation path must
// report the same profile. A cross-period leak through reused storage shows
// up as a diverging period.
func TestPooledSnapshotTraceMatchesNoReuse(t *testing.T) {
	pooled := reuseRun(t, false)
	naive := reuseRun(t, true)
	calls := 0
	for i := range pooled {
		if pooled[i] != naive[i] {
			t.Fatalf("period %d: pooled and no-reuse snapshots differ\npooled:\n%s\nnaive:\n%s", i+1, pooled[i], naive[i])
		}
		calls += strings.Count(pooled[i], "Method:")
	}
	if calls == 0 || pooled[0] == pooled[len(pooled)-1] {
		t.Fatal("the scenario's snapshots carry no call stats or never change; the comparison is vacuous")
	}
}
