package actor

import (
	"testing"
	"testing/quick"

	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Property: memory accounting is conserved — after any sequence of spawns,
// state-size updates, migrations, and stops, the sum of machine MemUsed
// equals the sum of live actors' declared sizes.
func TestPropertyMemoryConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		k := sim.New(17)
		c := cluster.New(k, 3, cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 1 << 20, NetMbps: 1000, SpeedFac: 1})
		rt := NewRuntime(k, c)
		cl := NewClient(rt, 0)
		var live []Ref
		sizes := map[Ref]int64{}

		for _, op := range ops {
			switch op % 4 {
			case 0: // spawn with a declared size
				size := int64(op) * 1024
				ref := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) {
					ctx.SetMemSize(size)
				}), cluster.MachineID(int(op)%3))
				cl.Send(ref, "init", nil, 1)
				live = append(live, ref)
				sizes[ref] = size
			case 1: // migrate a random live actor
				if len(live) > 0 {
					rt.Migrate(live[int(op)%len(live)], cluster.MachineID(int(op/4)%3), nil)
				}
			case 2: // stop one
				if len(live) > 0 {
					i := int(op) % len(live)
					rt.Stop(live[i])
					delete(sizes, live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // let time pass
				k.Run(k.Now() + sim.Time(sim.Duration(op)*sim.Millisecond))
			}
		}
		k.RunUntilIdle()

		var wantTotal, gotTotal int64
		for _, s := range sizes {
			wantTotal += s
		}
		for _, m := range c.Machines() {
			gotTotal += m.MemUsed()
		}
		return gotTotal == wantTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the directory stays consistent — every live actor reports a
// server that is up, and ActorsOn partitions the live actor set.
func TestPropertyDirectoryConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		k := sim.New(23)
		c := cluster.New(k, 4, cluster.M1Small)
		rt := NewRuntime(k, c)
		var live []Ref
		for _, op := range ops {
			switch op % 3 {
			case 0:
				live = append(live, rt.SpawnOn("A", BehaviorFunc(func(*Context, Message) {}), cluster.MachineID(int(op)%4)))
			case 1:
				if len(live) > 0 {
					rt.Migrate(live[int(op)%len(live)], cluster.MachineID(int(op/3)%4), nil)
				}
			case 2:
				k.Run(k.Now() + sim.Time(sim.Duration(op%50)*sim.Millisecond))
			}
		}
		k.RunUntilIdle()

		seen := map[Ref]bool{}
		for srv := cluster.MachineID(0); srv < 4; srv++ {
			for _, ref := range rt.ActorsOn(srv) {
				if seen[ref] {
					return false // actor on two servers
				}
				seen[ref] = true
				if rt.ServerOf(ref) != srv {
					return false
				}
			}
		}
		return len(seen) == len(liveActors(rt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
