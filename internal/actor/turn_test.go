package actor

import (
	"reflect"
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Tests of how a turn starts: a delivery that finds its actor able to run
// with nothing queued starts the turn at once and never touches the mailbox;
// every other delivery queues behind the mail already there, or is shed at a
// full bounded mailbox, and turns run in arrival order.

// TestIdleDeliveryAllocatesNoMailbox runs a fleet whose every delivery finds
// its actor idle: no actor ever queues, so none gets a mailbox array.
func TestIdleDeliveryAllocatesNoMailbox(t *testing.T) {
	const n = 256
	f := newIdleFleet(n)
	f.run(3 * n)
	for _, inst := range f.rt.actors[1:] {
		if c := cap(inst.mailbox); c != 0 {
			t.Fatalf("actor %d: every delivery found it idle, yet its mailbox holds an array of %d", inst.id, c)
		}
	}
}

// turnLog is an actor that records, for each turn, the int it was sent, the
// machine the turn ran on and how many messages were still queued.
type turnLog struct {
	args   []int
	srvs   []cluster.MachineID
	queued []int
}

func (l *turnLog) Receive(ctx *Context, msg Message) {
	l.args = append(l.args, msg.Arg.(int))
	l.srvs = append(l.srvs, ctx.srv)
	l.queued = append(l.queued, ctx.inst.queued())
	ctx.Use(10 * sim.Millisecond)
}

// TestDeliveriesQueueWhenTheActorCannotRun lands deliveries on an actor that
// is busy, migrating, holding a pending move, on a crashed-then-repaired
// machine, or at a full MailboxCap. Each queues (or is shed) behind the mail
// already there, and the turns run in arrival order.
func TestDeliveriesQueueWhenTheActorCannotRun(t *testing.T) {
	setup := func(t *testing.T) (*sim.Kernel, *cluster.Cluster, *Runtime, *turnLog, Ref, *Client) {
		k, c, rt := testEnv(t, 3)
		l := &turnLog{}
		return k, c, rt, l, rt.SpawnOn("Log", l, 0), NewClient(rt, 1)
	}
	send := func(cl *Client, to Ref, args ...int) {
		for _, a := range args {
			cl.Send(to, "m", a, 8)
		}
	}
	check := func(t *testing.T, l *turnLog, args []int, srvs []cluster.MachineID, queued []int) {
		t.Helper()
		if !reflect.DeepEqual(l.args, args) || !reflect.DeepEqual(l.srvs, srvs) || !reflect.DeepEqual(l.queued, queued) {
			t.Fatalf("turns ran on %v on machines %v with %v still queued; want %v on %v with %v",
				l.args, l.srvs, l.queued, args, srvs, queued)
		}
	}

	t.Run("busy", func(t *testing.T) {
		k, _, _, l, ref, cl := setup(t)
		send(cl, ref, 1, 2, 3) // one instant: 1 starts, 2 and 3 find it busy
		k.RunUntilIdle()
		check(t, l, []int{1, 2, 3}, []cluster.MachineID{0, 0, 0}, []int{0, 1, 0})
	})

	t.Run("migrating", func(t *testing.T) {
		k, _, rt, l, ref, cl := setup(t)
		rt.inst(ref.ID).memSize = 10 << 20 // a transfer of hundreds of ms
		rt.Migrate(ref, 2, nil)
		send(cl, ref, 1, 2)
		k.Run(sim.Time(50 * sim.Millisecond))
		if !rt.Migrating(ref) || rt.inst(ref.ID).queued() != 2 {
			t.Fatalf("mid-migration: migrating %v, %d queued; want true and 2", rt.Migrating(ref), rt.inst(ref.ID).queued())
		}
		k.RunUntilIdle()
		check(t, l, []int{1, 2}, []cluster.MachineID{2, 2}, []int{1, 0})
	})

	t.Run("pending move", func(t *testing.T) {
		// A move requested of an idle actor begins at once, so an idle
		// actor holding one is set up by hand: the delivery must not start
		// a turn ahead of it.
		k, _, rt, l, ref, cl := setup(t)
		rt.inst(ref.ID).pendingDst = 2
		send(cl, ref, 1)
		k.RunUntilIdle()
		check(t, l, []int{1}, []cluster.MachineID{2}, []int{0})
		if rt.Migrations() != 1 {
			t.Fatalf("%d migrations, want the pending move carried out", rt.Migrations())
		}
	})

	t.Run("crashed then repaired", func(t *testing.T) {
		// Mail that lands during the outage waits; a repair pumps nothing,
		// so the next delivery finds it queued and must go behind it.
		k, c, _, l, ref, cl := setup(t)
		c.Fail(0)
		send(cl, ref, 1, 2)
		k.RunUntilIdle()
		c.Repair(0)
		send(cl, ref, 3)
		k.RunUntilIdle()
		check(t, l, []int{1, 2, 3}, []cluster.MachineID{0, 0, 0}, []int{2, 1, 0})
	})

	t.Run("full MailboxCap", func(t *testing.T) {
		k, _, rt, l, ref, cl := setup(t)
		rt.MailboxCap = 2
		send(cl, ref, 1, 2, 3, 4, 5) // 1 runs, 2 and 3 queue, 4 and 5 are shed
		k.RunUntilIdle()
		send(cl, ref, 6) // idle again, nothing queued: never shed
		k.RunUntilIdle()
		check(t, l, []int{1, 2, 3, 6}, []cluster.MachineID{0, 0, 0, 0}, []int{0, 1, 0, 0})
		if rt.ShedRequests() != 2 {
			t.Fatalf("%d deliveries shed, want 2", rt.ShedRequests())
		}
	})
}
