package streamagg

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

func newEnv(machines int) (*sim.Kernel, *actor.Runtime, []cluster.MachineID) {
	k := sim.New(1)
	c := cluster.New(k, machines, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	servers := make([]cluster.MachineID, machines)
	for i := range servers {
		servers[i] = cluster.MachineID(i)
	}
	return k, rt, servers
}

func TestPlasmaOwnerMappingAndMemory(t *testing.T) {
	k, rt, servers := newEnv(4)
	cfg := Config{Keys: 64, PerKeyBytes: 1 << 10, EvCost: sim.Millisecond, FlushCost: sim.Microsecond}
	app := BuildPlasma(k, rt, servers, 8, cfg)
	k.RunUntilIdle()

	if len(app.Parts) != 8 {
		t.Fatalf("built %d partitions, want 8", len(app.Parts))
	}
	// Block partitioning: key k lives in partition k/8, and the partition
	// declares its whole key range's state.
	for _, key := range []int{0, 7, 8, 63} {
		if got, want := app.Owner(key), app.Parts[key/8]; got != want {
			t.Fatalf("Owner(%d) = %v, want partition %d", key, got, key/8)
		}
	}
	for _, ref := range app.Parts {
		if got := memBytes(rt, ref); got != 8<<10 {
			t.Fatalf("partition declares %d bytes, want %d (8 keys x 1KiB)", got, 8<<10)
		}
	}

	// Events are counted across partitions.
	cl := actor.NewClient(rt, servers[0])
	for i := 0; i < 5; i++ {
		cl.Send(app.Owner(i*13%64), "ev", i*13%64, 128)
	}
	k.RunUntilIdle()
	if app.Events != 5 {
		t.Fatalf("Events = %d, want 5", app.Events)
	}
}

func TestElasticHandoffFlipsOwnershipAndMemory(t *testing.T) {
	k, rt, servers := newEnv(2)
	cfg := Config{Keys: 8, PerKeyBytes: 1 << 20, EvCost: sim.Millisecond, FlushCost: sim.Microsecond}
	app := BuildElastic(k, rt, servers, servers[0], cfg)
	k.RunUntilIdle()

	// Block assignment: keys 0-3 on executor 0, 4-7 on executor 1.
	if app.OwnerOf(0) != 0 || app.OwnerOf(7) != 1 {
		t.Fatalf("initial assignment wrong: OwnerOf(0)=%d OwnerOf(7)=%d", app.OwnerOf(0), app.OwnerOf(7))
	}
	mem0, mem1 := memBytes(rt, app.Execs[0]), memBytes(rt, app.Execs[1])
	if mem0 != 4<<20 || mem1 != 4<<20 {
		t.Fatalf("initial memory split %d/%d, want 4MiB each", mem0, mem1)
	}

	app.StartHandoff([]int{1, 2}, 0, 1)
	if !app.Moving(1) || !app.Moving(2) {
		t.Fatal("keys not marked moving while the handoff is in flight")
	}
	if app.OwnerOf(1) != 0 {
		t.Fatal("ownership flipped before the state arrived at the destination")
	}
	k.RunUntilIdle()

	// Ownership flips when the installed state lands; memory followed it.
	if app.OwnerOf(1) != 1 || app.OwnerOf(2) != 1 {
		t.Fatalf("ownership after handoff: key1=%d key2=%d, want executor 1", app.OwnerOf(1), app.OwnerOf(2))
	}
	if app.Moving(1) || app.Moving(2) {
		t.Fatal("keys still marked moving after the handoff committed")
	}
	if got := memBytes(rt, app.Execs[0]); got != 2<<20 {
		t.Fatalf("source memory %d after shipping 2MiB, want %d", got, 2<<20)
	}
	if got := memBytes(rt, app.Execs[1]); got != 6<<20 {
		t.Fatalf("destination memory %d after installing 2MiB, want %d", got, 6<<20)
	}
	if app.HandoffBatches != 1 || app.HandoffKeys != 2 || app.HandoffBytes != 2<<20 {
		t.Fatalf("handoff accounting = %d batches / %d keys / %d bytes, want 1/2/%d",
			app.HandoffBatches, app.HandoffKeys, app.HandoffBytes, 2<<20)
	}

	// Events route to the new owner.
	cl := actor.NewClient(rt, servers[0])
	cl.Send(app.Owner(1), "ev", 1, 128)
	k.RunUntilIdle()
	if app.LoadOf(1) != 1 {
		t.Fatalf("LoadOf(1) = %d after one event, want 1", app.LoadOf(1))
	}
	if app.Owner(1) != app.Execs[1] {
		t.Fatal("Owner(1) still routes to the old executor")
	}
}

func TestElasticFlushRepliesWithBacklogLatency(t *testing.T) {
	k, rt, servers := newEnv(2)
	cfg := Config{Keys: 8, PerKeyBytes: 1 << 10, EvCost: 10 * sim.Millisecond, FlushCost: sim.Microsecond}
	app := BuildElastic(k, rt, servers, servers[0], cfg)
	k.RunUntilIdle()

	// Queue 5 events in front of the flush: its latency must include their
	// processing time (>= 50ms of CPU ahead of it).
	cl := actor.NewClient(rt, servers[0])
	for i := 0; i < 5; i++ {
		cl.Send(app.Execs[0], "ev", 0, 128)
	}
	var flushLat sim.Duration
	cl.Request(app.Execs[0], "flush", 0, 64, func(lat sim.Duration, _ interface{}) {
		flushLat = lat
	})
	k.RunUntilIdle()
	if flushLat < 50*sim.Millisecond {
		t.Fatalf("flush latency %v did not include the 5-event backlog (>= 50ms)", flushLat)
	}
}

// memBytes is the actor's declared state size, as the profiler reads it.
func memBytes(rt *actor.Runtime, ref actor.Ref) int64 {
	info, _ := rt.Lookup(ref)
	return info.MemBytes
}
