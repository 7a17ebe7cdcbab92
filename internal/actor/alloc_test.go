package actor

import (
	"testing"

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

// The message path's allocation ceiling: once the free lists, mailboxes and
// the kernel heap are warm, a request costs its reply path (one allocation;
// the ceiling leaves room for one more) and nothing per hop, and an actor →
// actor Send and an idle actor's self-message cycle cost nothing. Before
// flights and Contexts were recycled the first two read 15 and 10, 6 of the
// 10 being the actor → actor Send.
func TestMessagePathAllocCeiling(t *testing.T) {
	p := newMsgPath()
	for i := 0; i < 100; i++ {
		p.requestReply()
		p.send()
	}
	if got := testing.AllocsPerRun(200, p.requestReply); got > 2 {
		t.Errorf("client request → forward → reply: %v allocs, ceiling 2", got)
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
}
