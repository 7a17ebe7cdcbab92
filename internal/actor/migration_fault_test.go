package actor

import (
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Migration failure and rollback: a live migration must survive a crash of
// either endpoint mid-transfer. Destination loss rolls the actor back onto
// its source with its buffered mail intact (delivered exactly once); source
// loss aborts the move and the actor awaits RecoverMachine. In neither case
// may the actor be left stuck `migrating` or the in-flight registry leak.

// bigActor spawns an actor on srv whose state is 10 MB (so serialization
// takes 50 ms and the transfer ~335 ms — a wide window to crash into) and
// which counts every "work" message it processes.
func bigActor(t *testing.T, k *sim.Kernel, rt *Runtime, srv cluster.MachineID, worked *int) Ref {
	t.Helper()
	ref := rt.SpawnOn("Big", BehaviorFunc(func(ctx *Context, msg Message) {
		switch msg.Method {
		case "init":
			ctx.SetMemSize(10 << 20)
		case "work":
			*worked++
		}
	}), srv)
	NewClient(rt, srv).Send(ref, "init", nil, 1)
	k.RunUntilIdle()
	return ref
}

func TestDestinationCrashMidTransferRollsBack(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := NewRuntime(k, c)
	worked := 0
	ref := bigActor(t, k, rt, 0, &worked)

	var doneCalled, doneOK bool
	rt.Migrate(ref, 1, func(ok bool) { doneCalled, doneOK = true, ok })
	k.Run(k.Now() + sim.Time(100*sim.Millisecond)) // mid-transfer
	if !rt.inst(ref.ID).migrating || rt.InFlightMigrations() != 1 {
		t.Fatal("migration not in flight at crash time")
	}
	// Mail arriving mid-migration buffers in the mailbox.
	cl := NewClient(rt, 0)
	for i := 0; i < 3; i++ {
		cl.Send(ref, "work", nil, 8)
	}

	if !c.Fail(1) {
		t.Fatal("Fail rejected")
	}
	// Rollback is synchronous with the crash: the actor is live on its
	// source, nothing is stuck, and the initiator has been told.
	if !doneCalled || doneOK {
		t.Fatalf("initiator not told of failure (called=%v ok=%v)", doneCalled, doneOK)
	}
	if rt.inst(ref.ID).migrating || rt.InFlightMigrations() != 0 {
		t.Fatal("migration state stuck after destination crash")
	}
	if srv := rt.ServerOf(ref); srv != 0 {
		t.Fatalf("actor on %d after rollback, want source 0", srv)
	}
	if rt.FailedMigrations() != 1 {
		t.Fatalf("FailedMigrations = %d, want 1", rt.FailedMigrations())
	}

	// Buffered messages deliver exactly once after the rollback.
	k.RunUntilIdle()
	if worked != 3 {
		t.Fatalf("worked = %d, want 3 (exactly-once redelivery)", worked)
	}
	// Memory stayed attributed to the source.
	if got := c.Machine(0).MemUsed(); got != 10<<20 {
		t.Fatalf("source memory = %d, want 10MB", got)
	}

	// A follow-up migration succeeds once the destination is back.
	if !c.Repair(1) {
		t.Fatal("Repair rejected")
	}
	var retryOK bool
	rt.Migrate(ref, 1, func(ok bool) { retryOK = ok })
	k.RunUntilIdle()
	if !retryOK || rt.ServerOf(ref) != 1 {
		t.Fatalf("follow-up migration failed (ok=%v srv=%d)", retryOK, rt.ServerOf(ref))
	}
	if rt.Migrations() != 1 || rt.InFlightMigrations() != 0 {
		t.Fatalf("Migrations = %d, InFlight = %d after retry", rt.Migrations(), rt.InFlightMigrations())
	}
	if got := c.Machine(1).MemUsed(); got != 10<<20 {
		t.Fatalf("destination memory = %d after commit, want 10MB", got)
	}
}

func TestSourceCrashMidTransferAwaitsRecovery(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := NewRuntime(k, c)
	worked := 0
	ref := bigActor(t, k, rt, 0, &worked)

	var doneCalled, doneOK bool
	rt.Migrate(ref, 1, func(ok bool) { doneCalled, doneOK = true, ok })
	k.Run(k.Now() + sim.Time(100*sim.Millisecond))
	if !c.Fail(0) {
		t.Fatal("Fail rejected")
	}
	if !doneCalled || doneOK {
		t.Fatalf("initiator not told of failure (called=%v ok=%v)", doneCalled, doneOK)
	}
	if rt.inst(ref.ID).migrating || rt.InFlightMigrations() != 0 {
		t.Fatal("migration state stuck after source crash")
	}
	// The actor died with its machine; recovery re-homes it to the survivor.
	if n := rt.RecoverMachine(0); n != 1 {
		t.Fatalf("recovered %d actors, want 1", n)
	}
	if srv := rt.ServerOf(ref); srv != 1 {
		t.Fatalf("actor on %d after recovery, want 1", srv)
	}
	NewClient(rt, 1).Send(ref, "work", nil, 8)
	k.RunUntilIdle()
	if worked != 1 {
		t.Fatalf("recovered actor did not serve (worked=%d)", worked)
	}
}

// Satellite regression: a migration requested while the actor is busy (so it
// is still queued as pendingDst, not yet in flight) must fail fast when the
// destination dies, not leave the actor stuck waiting to migrate forever.
func TestQueuedMigrationFailsFastOnDeadDestination(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := NewRuntime(k, c)
	worked := 0
	ref := rt.SpawnOn("Slow", BehaviorFunc(func(ctx *Context, msg Message) {
		switch msg.Method {
		case "slow":
			ctx.Use(200 * sim.Millisecond)
		case "work":
			worked++
		}
	}), 0)
	cl := NewClient(rt, 0)
	cl.Send(ref, "slow", nil, 8)
	k.Run(k.Now() + sim.Time(10*sim.Millisecond)) // mid-processing

	var doneCalled, doneOK bool
	rt.Migrate(ref, 1, func(ok bool) { doneCalled, doneOK = true, ok })
	if rt.inst(ref.ID).migrating {
		t.Fatal("migration began while the actor was busy")
	}
	c.Fail(1)
	if !doneCalled || doneOK {
		t.Fatalf("queued migration not failed fast (called=%v ok=%v)", doneCalled, doneOK)
	}
	// The actor finishes its message and keeps serving on its source.
	cl.Send(ref, "work", nil, 8)
	k.RunUntilIdle()
	if rt.inst(ref.ID).migrating || rt.InFlightMigrations() != 0 {
		t.Fatal("migration state stuck")
	}
	if rt.ServerOf(ref) != 0 || worked != 1 {
		t.Fatalf("actor not serving on source (srv=%d worked=%d)", rt.ServerOf(ref), worked)
	}
}

// Decommission removes the destination without firing crash hooks; the
// transfer discovers the loss on arrival and rolls back.
func TestDecommissionMidTransferRollsBack(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 3, cluster.M1Small)
	rt := NewRuntime(k, c)
	worked := 0
	ref := bigActor(t, k, rt, 0, &worked)

	var doneCalled, doneOK bool
	rt.Migrate(ref, 1, func(ok bool) { doneCalled, doneOK = true, ok })
	k.Run(k.Now() + sim.Time(100*sim.Millisecond)) // past serialization, mid-transfer
	if err := c.Decommission(1); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	k.RunUntilIdle()
	if !doneCalled || doneOK {
		t.Fatalf("initiator not told of failure (called=%v ok=%v)", doneCalled, doneOK)
	}
	if rt.inst(ref.ID).migrating || rt.InFlightMigrations() != 0 {
		t.Fatal("migration state stuck after decommission")
	}
	if srv := rt.ServerOf(ref); srv != 0 {
		t.Fatalf("actor on %d after rollback, want source 0", srv)
	}
	NewClient(rt, 0).Send(ref, "work", nil, 8)
	k.RunUntilIdle()
	if worked != 1 {
		t.Fatalf("rolled-back actor did not serve (worked=%d)", worked)
	}
}

func TestStopDuringMigrationAborts(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, cluster.M1Small)
	rt := NewRuntime(k, c)
	worked := 0
	ref := bigActor(t, k, rt, 0, &worked)

	var doneCalled, doneOK bool
	rt.Migrate(ref, 1, func(ok bool) { doneCalled, doneOK = true, ok })
	k.Run(k.Now() + sim.Time(100*sim.Millisecond))
	rt.Stop(ref)
	k.RunUntilIdle()
	if !doneCalled || doneOK {
		t.Fatalf("initiator not told of failure (called=%v ok=%v)", doneCalled, doneOK)
	}
	if rt.InFlightMigrations() != 0 || rt.Exists(ref) {
		t.Fatal("stop during migration leaked state")
	}
	if rt.FailedMigrations() != 1 {
		t.Fatalf("FailedMigrations = %d, want 1", rt.FailedMigrations())
	}
}

// Stop and a RecoverMachine run on its own end an in-flight migration
// through the crash hook's abort path, and each leaves its own rollback
// record: parented to the transfer, source and destination of the move,
// the actor, and its reason.
func TestStopAndRecoverRollbackRecords(t *testing.T) {
	for _, tc := range []struct {
		reason string
		end    func(rt *Runtime, ref Ref)
	}{
		{"actor-stopped", func(rt *Runtime, ref Ref) { rt.Stop(ref) }},
		{"src-recovered", func(rt *Runtime, _ Ref) { rt.RecoverMachine(0) }},
	} {
		k := sim.New(1)
		c := cluster.New(k, 2, cluster.M1Small)
		rt := NewRuntime(k, c)
		ring := trace.NewRing(16)
		tr := trace.New(ring)
		tr.SetClock(k.Now)
		rt.SetTracer(tr)
		worked := 0
		ref := bigActor(t, k, rt, 0, &worked)
		var outcomes []bool
		rt.Migrate(ref, 1, func(ok bool) { outcomes = append(outcomes, ok) })
		k.Run(k.Now() + sim.Time(100*sim.Millisecond)) // mid-transfer
		tc.end(rt, ref)

		recs := ring.Records()
		if len(recs) != 2 || recs[0].Kind != trace.KindTransfer {
			t.Fatalf("%s: records %+v, want a transfer and its rollback", tc.reason, recs)
		}
		want := trace.Record{ID: recs[0].ID + 1, Parent: recs[0].ID, At: k.Now(), Kind: trace.KindRollback,
			Server: 0, Target: 1, Actor: uint64(ref.ID), Rule: -1, Detail: tc.reason}
		if recs[1] != want {
			t.Errorf("%s: rollback record %+v, want %+v", tc.reason, recs[1], want)
		}
		if len(outcomes) != 1 || outcomes[0] {
			t.Errorf("%s: initiator outcomes %v, want one failure", tc.reason, outcomes)
		}
		if rt.InFlightMigrations() != 0 || rt.FailedMigrations() != 1 || rt.MigratingTo(ref) != -1 {
			t.Errorf("%s: in flight %d, failed %d, migrating to %d; want 0, 1, -1",
				tc.reason, rt.InFlightMigrations(), rt.FailedMigrations(), rt.MigratingTo(ref))
		}
	}
}
