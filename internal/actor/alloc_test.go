package actor

import (
	"math/rand"
	"testing"
	"unsafe"

	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// msgPath is the fixture of the message-path microbenchmarks: a client on
// machine 2, a front actor on machine 0 that forwards requests to (and
// sends ticks at) a leaf on machine 1, every hop crossing the network.
type msgPath struct {
	k     *sim.Kernel
	cl    *Client
	front Ref
	onRep func(sim.Duration, interface{})
}

func newMsgPath() *msgPath {
	k := sim.New(1)
	c := cluster.New(k, 3, cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1})
	rt := NewRuntime(k, c)
	leaf := rt.SpawnOn("Leaf", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(sim.Millisecond)
		ctx.Reply(nil, 16) // no reply path on a tick: a no-op
	}), 1)
	front := rt.SpawnOn("Front", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(sim.Millisecond)
		if msg.Method == "tick" {
			ctx.Send(leaf, "tick", nil, 64)
			return
		}
		ctx.Forward(leaf, msg.Method, msg.Arg, msg.Size)
	}), 0)
	return &msgPath{k: k, cl: NewClient(rt, 2), front: front, onRep: func(sim.Duration, interface{}) {}}
}

// requestReply runs one client request → forward → reply to completion.
func (p *msgPath) requestReply() {
	p.cl.Request(p.front, "get", nil, 64, p.onRep)
	p.k.RunUntilIdle()
}

// send runs one client send → actor → actor Send to completion; the client's
// own hop allocates nothing, so what is left is the actor → actor Send.
func (p *msgPath) send() {
	p.cl.Send(p.front, "tick", nil, 64)
	p.k.RunUntilIdle()
}

func BenchmarkRequestReply(b *testing.B) {
	p := newMsgPath()
	p.requestReply()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.requestReply()
	}
}

func BenchmarkSend(b *testing.B) {
	p := newMsgPath()
	p.send()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.send()
	}
}

// idleFleet is fleet_control's actor shape at bench size: n actors on 16
// machines, each on one 2 s self-message cycle of 6 ms of CPU, kicked off
// on a millisecond grid. An actor's next message arrives long after its turn
// ends, so every delivery finds it idle.
type idleFleet struct {
	k     *sim.Kernel
	rt    *Runtime
	turns int
}

func newIdleFleet(n int) *idleFleet {
	const machines = 16
	k := sim.New(1)
	c := cluster.New(k, machines, cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1})
	f := &idleFleet{k: k, rt: NewRuntime(k, c)}
	worker := BehaviorFunc(func(ctx *Context, msg Message) {
		f.turns++
		ctx.Use(6 * sim.Millisecond)
		ctx.SendAfter(2*sim.Second, ctx.Self(), "work", nil, 64)
	})
	cl := NewClient(f.rt, 0)
	for i := 0; i < n; i++ {
		ref := f.rt.SpawnOn("Worker", worker, cluster.MachineID(i%machines))
		k.At(sim.Time(i%2000)*sim.Time(sim.Millisecond), func() { cl.Send(ref, "work", nil, 64) })
	}
	return f
}

// run fires events until n more turns have started.
func (f *idleFleet) run(n int) {
	for end := f.turns + n; f.turns < end; {
		f.k.Step()
	}
}

// BenchmarkIdleDelivery times one turn of the idle fleet — the delay, the
// self-send, the delivery, the turn and its completion — per op.
func BenchmarkIdleDelivery(b *testing.B) {
	const n = 4096
	f := newIdleFleet(n)
	f.run(2 * n)
	b.ReportAllocs()
	b.ResetTimer()
	f.run(b.N)
}

// The message path's allocation ceiling: once the free lists, mailboxes,
// the reply table and the kernel heap are warm, a request → forward → reply
// costs nothing (its reply path is a reused slot of the runtime's table), nor
// does any hop, an actor → actor Send or an idle actor's self-message cycle.
// Before flights and Contexts were recycled the first two read 15 and 10, 6
// of the 10 being the actor → actor Send.
func TestMessagePathAllocCeiling(t *testing.T) {
	p := newMsgPath()
	for i := 0; i < 100; i++ {
		p.requestReply()
		p.send()
	}
	if got := testing.AllocsPerRun(200, p.requestReply); got > 0 {
		t.Errorf("client request → forward → reply: %v allocs, ceiling 0", got)
	}
	if got := testing.AllocsPerRun(200, p.send); got > 0 {
		t.Errorf("actor → actor Send: %v allocs, ceiling 0", got)
	}
	// The idle fleet is measured between 2^26 and 2^27 µs of virtual time:
	// the first time the clock crosses a power of two, the kernel files
	// events into a bucket it has not used before and grows that bucket's
	// chunk list, an allocation of the queue's rather than the message
	// path's. Seventeen 2 s cycles take the clock past 2^26; the eleven the
	// measurement runs end short of 2^27.
	const n = 256
	f := newIdleFleet(n)
	f.run(17 * n)
	if got := testing.AllocsPerRun(10, func() { f.run(n) }); got > 0 {
		t.Errorf("idle delivery: %v allocs per fleet cycle, ceiling 0", got)
	}
	// A delivery to a random actor of a fleet costs nothing either.
	d := newDeliverFleet(4096)
	if got := testing.AllocsPerRun(200, d.deliver); got > 0 {
		t.Errorf("delivery to a random actor: %v allocs, ceiling 0", got)
	}
}

// deliverFleet is fleet_control's miss pattern: n idle actors on 1,024
// machines, each op one client message to an actor picked at random, run
// to the end of its turn. At full size the instances are far larger than
// the cache, so every delivery reads a cold actor. Every machine has run a
// turn once, so none allocates its work queue inside a measurement.
type deliverFleet struct {
	k    *sim.Kernel
	cl   *Client
	refs []Ref
	rng  *rand.Rand
}

func newDeliverFleet(n int) *deliverFleet {
	const machines = 1024
	k := sim.New(1)
	c := cluster.New(k, machines+1, cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1})
	rt := NewRuntime(k, c)
	f := &deliverFleet{k: k, cl: NewClient(rt, machines), refs: make([]Ref, n), rng: rand.New(rand.NewSource(1))}
	worker := BehaviorFunc(func(ctx *Context, msg Message) { ctx.Use(sim.Millisecond) })
	for i := range f.refs {
		f.refs[i] = rt.SpawnOn("Worker", worker, cluster.MachineID(i%machines))
	}
	for _, ref := range f.refs[:min(n, machines)] {
		f.cl.Send(ref, "work", nil, 64)
		k.RunUntilIdle()
	}
	return f
}

// deliver sends one message to a random actor and runs it to completion.
func (f *deliverFleet) deliver() {
	f.cl.Send(f.refs[f.rng.Intn(len(f.refs))], "work", nil, 64)
	f.k.RunUntilIdle()
}

// BenchmarkDeliverFleet times one idle delivery to a random actor of a
// 131,072-actor runtime, fleet_control's size. Ceiling: 0 allocs/op
// (TestMessagePathAllocCeiling).
func BenchmarkDeliverFleet(b *testing.B) {
	f := newDeliverFleet(131_072)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.deliver()
	}
}

// An actor is two cache lines, and what send, deliver and start read of
// every message sits in the first: see the layout comment on instance.
func TestInstanceLayout(t *testing.T) {
	var inst instance
	if got := unsafe.Sizeof(inst); got != 128 {
		t.Errorf("instance is %d bytes, want 128: see the layout comment on instance", got)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"srv", unsafe.Offsetof(inst.srv) + unsafe.Sizeof(inst.srv)},
		{"mailbox", unsafe.Offsetof(inst.mailbox) + unsafe.Sizeof(inst.mailbox)},
		{"head", unsafe.Offsetof(inst.head) + unsafe.Sizeof(inst.head)},
		{"pending", unsafe.Offsetof(inst.pending) + unsafe.Sizeof(inst.pending)},
		{"busy", unsafe.Offsetof(inst.busy) + unsafe.Sizeof(inst.busy)},
		{"migrating", unsafe.Offsetof(inst.migrating) + unsafe.Sizeof(inst.migrating)},
		{"dead", unsafe.Offsetof(inst.dead) + unsafe.Sizeof(inst.dead)},
		{"pinned", unsafe.Offsetof(inst.pinned) + unsafe.Sizeof(inst.pinned)},
	} {
		if f.end > 64 {
			t.Errorf("instance.%s ends at byte %d, past the first cache line: see the layout comment on instance", f.name, f.end)
		}
	}
}
