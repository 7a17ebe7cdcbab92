package actor

import (
	"reflect"
	"testing"
	"testing/quick"

	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Tests of the recycled message path: flights, Contexts and mailbox backing
// arrays are reused, so these pin what reuse must not change — order,
// payloads, exact shedding — and that nothing pending ever refers to a
// struct that is back on a free list.

var oneCore = cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 4096, NetMbps: 1000, SpeedFac: 1}

// checkFreeLists fails the test when a struct on a free list is not in its
// poisoned state or is linked more than once, and reports how many structs
// the lists hold. arrive and finish panic when a poisoned struct fires, so a
// pending event that still referred to one of these could not go unnoticed.
func checkFreeLists(t *testing.T, rt *Runtime) (flights, contexts int) {
	t.Helper()
	seenF := map[*flight]bool{}
	seenC := map[*Context]bool{}
	for f := rt.flights; f != nil; f = f.next {
		if seenF[f] {
			t.Fatalf("flight %p is on a free list twice", f)
		}
		seenF[f] = true
		if f.kind != flightFree || !reflect.DeepEqual(f.msg, Message{}) {
			t.Fatalf("free flight not poisoned: kind %d msg %+v", f.kind, f.msg)
		}
	}
	for c := rt.contexts; c != nil; c = c.next {
		if seenC[c] {
			t.Fatalf("Context %p is on a free list twice", c)
		}
		seenC[c] = true
		if c.inst != nil || c.cpu != 0 || len(c.effects) != 0 || !reflect.DeepEqual(c.msg, Message{}) {
			t.Fatalf("free Context not poisoned: %+v", c)
		}
	}
	return len(seenF), len(seenC)
}

// Property: the mailbox is a FIFO that sheds exactly at MailboxCap, across
// drains (reset to the start of the backing array), compactions and growth —
// checked against a plain slice queue driven by the same arrivals.
func TestPropertyMailboxMatchesSliceQueue(t *testing.T) {
	const cost = sim.Millisecond
	f := func(ops []uint8, capSel uint8) bool {
		k := sim.New(5)
		rt := NewRuntime(k, cluster.New(k, 1, oneCore))
		rt.MailboxCap = []int{0, 1, 3, 8}[capSel%4]
		var served []int
		ref := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) {
			served = append(served, msg.Arg.(int))
			ctx.Use(cost)
		}), 0)
		inst := rt.actors[ref.ID]
		cl := NewClient(rt, 0) // local: a send at T is delivered at T

		// The model: a slice queue in front of a one-message-at-a-time server.
		var queue, want []int
		var shed int64
		var busy bool
		var busyUntil sim.Time
		start := func(at sim.Time) {
			want = append(want, queue[0])
			queue = queue[1:]
			busy, busyUntil = true, at+sim.Time(cost+baseMsgCost)
		}
		advance := func(now sim.Time) {
			for busy && busyUntil <= now {
				busy = false
				if len(queue) > 0 {
					start(busyUntil)
				}
			}
		}
		agree := func() bool {
			if inst.queued() != len(queue) || rt.ShedRequests() != shed || !reflect.DeepEqual(served, want) {
				t.Logf("cap %d: queued %d/%d shed %d/%d served %v want %v", rt.MailboxCap,
					inst.queued(), len(queue), rt.ShedRequests(), shed, served, want)
				return false
			}
			// Compaction keeps a bounded mailbox's array bounded too.
			if rt.MailboxCap > 0 && cap(inst.mailbox) > 8*rt.MailboxCap {
				t.Logf("cap %d: backing array grew to %d", rt.MailboxCap, cap(inst.mailbox))
				return false
			}
			return true
		}

		next := 0
		for _, op := range ops {
			now := k.Now()
			if op%2 == 0 { // a burst of sends, delivered at this instant
				for n := int(op / 2 % 8); n > 0; n-- {
					cl.Send(ref, "m", next, 1)
					if rt.MailboxCap > 0 && len(queue) >= rt.MailboxCap {
						shed++
					} else {
						queue = append(queue, next)
						if !busy {
							start(now)
						}
					}
					next++
				}
				continue
			}
			until := now + sim.Time(sim.Duration(op/2%4)*cost)
			k.Run(until)
			advance(until)
			if !agree() {
				return false
			}
		}
		k.RunUntilIdle()
		advance(1 << 62)
		return agree() && inst.head == 0 && len(inst.mailbox) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Messages chasing an actor that migrates under them are forwarded from a
// flight that has already been recycled; every request must still come back
// exactly once with its own payload.
func TestFlightsKeepPayloadsChasingMigratingActor(t *testing.T) {
	k, _, rt := testEnv(t, 4)
	ref := rt.SpawnOn("Echo", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(200 * sim.Microsecond)
		ctx.Reply(msg.Arg, msg.Size)
	}), 0)
	cl := NewClient(rt, 3)
	const n = 300
	replies := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		cl.Request(ref, "m", i, int64(100+i), func(_ sim.Duration, r interface{}) {
			if r != i {
				t.Errorf("request %d got reply %v", i, r)
			}
			replies[i]++
		})
		if i%3 == 0 {
			rt.Migrate(ref, cluster.MachineID(i/3%3), nil)
		}
		k.Run(k.Now() + sim.Time(sim.Duration(i%5)*300*sim.Microsecond))
	}
	k.RunUntilIdle()
	for i, got := range replies {
		if got != 1 {
			t.Fatalf("request %d answered %d times", i, got)
		}
	}
	if rt.Migrations() == 0 {
		t.Fatal("the actor never moved: nothing was chased")
	}
	checkFreeLists(t, rt)
}

// Effects of one turn take place in the order the handler issued them: two
// Sends keep their order, and a SendAfter — even of zero — spends its delay
// hop on the sending machine first, so it lands behind the turn's Sends.
func TestSendAfterOrderRelativeToSend(t *testing.T) {
	for _, sinkSrv := range []cluster.MachineID{0, 1} {
		k, _, rt := testEnv(t, 2)
		var got []string
		sink := rt.SpawnOn("Sink", BehaviorFunc(func(ctx *Context, msg Message) {
			got = append(got, msg.Method)
		}), sinkSrv)
		src := rt.SpawnOn("Src", BehaviorFunc(func(ctx *Context, msg Message) {
			ctx.SendAfter(0, sink, "after0", nil, 8)
			ctx.Send(sink, "send1", nil, 8)
			ctx.SendAfter(sim.Millisecond, sink, "after1ms", nil, 8)
			ctx.Send(sink, "send2", nil, 8)
		}), 0)
		NewClient(rt, 0).Send(src, "go", nil, 1)
		k.RunUntilIdle()
		want := []string{"send1", "send2", "after0", "after1ms"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sink on machine %d received %v, want %v", sinkSrv, got, want)
		}
	}
}

// A turn in service when its machine crashes is lost, even when the machine
// is repaired before the turn's completion event fires: its effects are
// never committed, and the re-homed actor — already serving its next message
// — is not released early into serving two at once.
func TestCrashedTurnNeverCompletesAfterRepair(t *testing.T) {
	k := sim.New(1)
	c := cluster.New(k, 2, oneCore)
	rt := NewRuntime(k, c)
	const cost = 10 * sim.Second
	var sunk []interface{}
	sink := rt.SpawnOn("Sink", BehaviorFunc(func(ctx *Context, msg Message) {
		sunk = append(sunk, msg.Arg)
	}), 1)
	var started []sim.Time
	ref := rt.SpawnOn("Slow", BehaviorFunc(func(ctx *Context, msg Message) {
		started = append(started, ctx.Now())
		ctx.Use(cost)
		ctx.Send(sink, "out", msg.Arg, 8)
	}), 0)
	cl := NewClient(rt, 1)
	for i := 1; i <= 3; i++ {
		cl.Send(ref, "m", i, 8)
	}
	k.At(sim.Time(sim.Second), func() {
		c.Fail(0)
		rt.RecoverMachine(0)
	})
	k.At(sim.Time(2*sim.Second), func() { c.Repair(0) })
	k.RunUntilIdle()

	// Message 1 died with machine 0; 2 and 3 are served on machine 1.
	if want := []interface{}{2, 3}; !reflect.DeepEqual(sunk, want) {
		t.Fatalf("committed effects %v, want %v (the dead turn's must not appear)", sunk, want)
	}
	// Turn 2 starts at the recovery; turn 3 must wait for all of it.
	if len(started) != 3 || started[2]-started[1] < sim.Time(cost) {
		t.Fatalf("two messages in service at once: turns started at %v", started)
	}
	checkFreeLists(t, rt)
}

// Stop and a machine crash, each with one message in service and more
// queued, must leave the recycled structs consistent: whatever was dropped is
// never fired later, and the structs serve the next messages correctly.
func TestStopAndCrashLeaveFreeListsClean(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "stop"
		if crash {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			k := sim.New(1)
			c := cluster.New(k, 3, oneCore)
			rt := NewRuntime(k, c)
			echo := BehaviorFunc(func(ctx *Context, msg Message) {
				ctx.Use(10 * sim.Millisecond)
				ctx.SendAfter(sim.Millisecond, ctx.Self(), "noop", nil, 1)
				ctx.Reply(msg.Arg, 8)
			})
			ref := rt.SpawnOn("A", echo, 0)
			cl := NewClient(rt, 2)
			answered := map[interface{}]int{}
			onReply := func(_ sim.Duration, r interface{}) { answered[r]++ }
			for i := 0; i < 3; i++ {
				cl.Request(ref, "m", i, 8, onReply)
			}
			k.Run(sim.Time(5 * sim.Millisecond)) // 0 in service, 1 and 2 queued
			if crash {
				c.Fail(0)
				rt.RecoverMachine(0)
				k.After(2*sim.Millisecond, func() { c.Repair(0) })
			} else {
				rt.Stop(ref)
			}
			// The same structs now carry another actor's traffic.
			other := rt.SpawnOn("B", echo, 1)
			for i := 10; i < 13; i++ {
				cl.Request(other, "m", i, 8, onReply)
			}
			k.Run(k.Now() + sim.Time(sim.Second))
			rt.Stop(other) // ends the self-sent noop loops
			if crash {
				rt.Stop(ref)
			}
			k.RunUntilIdle()

			// Stop lets the turn in service finish and drops the queue; a
			// crash loses the turn in service and redelivers the queue.
			want := map[interface{}]int{0: 1, 10: 1, 11: 1, 12: 1}
			if crash {
				want = map[interface{}]int{1: 1, 2: 1, 10: 1, 11: 1, 12: 1}
			}
			if !reflect.DeepEqual(answered, want) {
				t.Fatalf("answered %v, want %v", answered, want)
			}
			if f, cx := checkFreeLists(t, rt); f == 0 || cx == 0 {
				t.Fatalf("nothing was recycled: %d flights, %d contexts", f, cx)
			}
		})
	}
}

// Randomized churn — requests through forwarding chains, timers, stops,
// migrations, crashes with recovery and repair — with the poison checks
// armed: no request is answered twice, no poisoned struct ever fires, and
// the free lists end consistent. After every step each machine's kept
// actor count equals a walk of the actor table.
func TestRecyclingUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		k := sim.New(seed)
		c := cluster.New(k, 4, cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1})
		rt := NewRuntime(k, c)
		rt.MailboxCap = 4
		rng := k.Rand()
		var live []Ref
		pick := func() Ref { return live[rng.Intn(len(live))] }
		var behavior BehaviorFunc
		behavior = func(ctx *Context, msg Message) {
			hops := msg.Arg.([2]int)
			ctx.Use(sim.Duration(1+hops[0]%3) * sim.Millisecond)
			switch {
			case msg.Method == "tick":
				if hops[1] > 0 {
					ctx.SendAfter(2*sim.Millisecond, pick(), "tick", [2]int{hops[0], hops[1] - 1}, 32)
					ctx.Send(pick(), "tick", [2]int{hops[0], 0}, 32)
				}
			case hops[1] > 0:
				ctx.Forward(pick(), "req", [2]int{hops[0], hops[1] - 1}, 64)
			default:
				ctx.Reply(hops[0], 16)
			}
		}
		spawn := func() {
			up := c.UpMachines()
			live = append(live, rt.SpawnOn("A", behavior, up[rng.Intn(len(up))].ID))
		}
		for i := 0; i < 8; i++ {
			spawn()
		}
		cl := NewClient(rt, 3)
		var answered []int
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				id := len(answered)
				answered = append(answered, 0)
				cl.Request(pick(), "req", [2]int{id, rng.Intn(3)}, 64, func(_ sim.Duration, r interface{}) {
					answered[r.(int)]++
				})
			case op < 6:
				cl.Send(pick(), "tick", [2]int{step, 2}, 32)
			case op == 6:
				i := rng.Intn(len(live))
				rt.Stop(live[i])
				live = append(live[:i], live[i+1:]...)
				spawn()
			case op == 7:
				rt.Migrate(pick(), cluster.MachineID(rng.Intn(3)), nil)
			case op == 8 && c.UpCount() == 4:
				// Machine 3 hosts the client and stays up.
				id := cluster.MachineID(rng.Intn(3))
				c.Fail(id)
				rt.RecoverMachine(id)
				k.After(sim.Duration(1+rng.Intn(4))*sim.Millisecond, func() { c.Repair(id) })
			}
			k.Run(k.Now() + sim.Time(sim.Duration(rng.Intn(3000))*sim.Microsecond))
			for _, m := range c.Machines() {
				if n, walk := rt.NumActorsOn(m.ID), len(rt.ActorsOn(m.ID)); n != walk {
					t.Fatalf("seed %d step %d: NumActorsOn(%d) = %d, a walk finds %d", seed, step, m.ID, n, walk)
				}
			}
		}
		k.RunUntilIdle()
		for id, n := range answered {
			if n > 1 {
				t.Fatalf("seed %d: request %d answered %d times", seed, id, n)
			}
		}
		if rt.InFlightMigrations() != 0 {
			t.Fatalf("seed %d: %d migrations stuck", seed, rt.InFlightMigrations())
		}
		if f, cx := checkFreeLists(t, rt); f == 0 || cx == 0 {
			t.Fatalf("seed %d: nothing was recycled: %d flights, %d contexts", seed, f, cx)
		}
	}
}

// A Context that completes after it was recycled, or a flight that fires
// while on a free list, is a runtime bug and must be loud.
func TestPoisonedStructsPanic(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	ref := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) { ctx.Send(ctx.Self(), "x", nil, 1) }), 0)
	NewClient(rt, 0).Send(ref, "go", nil, 1)
	k.Run(sim.Time(sim.Millisecond))
	rt.Stop(ref)
	k.RunUntilIdle()
	if rt.flights == nil || rt.contexts == nil {
		t.Fatal("fixture recycled nothing")
	}
	for name, fire := range map[string]func(){"flight": rt.flights.fire, "context": rt.contexts.done} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("firing a recycled %s did not panic", name)
				}
			}()
			fire()
		}()
	}
}
