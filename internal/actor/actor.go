// Package actor implements the actor runtime PLASMA manages: typed actors
// with mailboxes, asynchronous messaging with request/reply, reference
// properties (the `ref(a.prop)` feature of the EPL), live migration, and
// hooks for the elasticity profiling runtime and for rule-driven placement
// of new actors.
//
// The runtime executes on the discrete-event simulator: application handlers
// run real Go code and declare virtual CPU cost via Context.Use; the hosting
// machine's cores are occupied for that long, producing the CPU, memory, and
// network signals the paper's elasticity rules react to.
package actor

import (
	"fmt"
	"sort"

	"plasma/internal/cluster"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// ID uniquely identifies an actor within a Runtime. The zero ID is invalid.
type ID uint64

// Ref is a location-transparent handle to an actor.
type Ref struct{ ID ID }

// Zero reports whether the ref is the invalid zero reference.
func (r Ref) Zero() bool { return r.ID == 0 }

func (r Ref) String() string { return fmt.Sprintf("actor#%d", r.ID) }

// ClientCaller is the caller type the EPL's `client` keyword matches.
const ClientCaller = "client"

// Message is one delivered actor message.
type Message struct {
	Method     string
	Arg        interface{}
	Size       int64  // payload bytes, for network and profiling accounting
	Sender     Ref    // zero when sent by a client
	SenderType string // actor type name, or ClientCaller

	reply uint64 // the request's handle in the runtime's reply table; 0 for none
}

// replyPath routes a reply back to the original requester across any number
// of Forward hops: the client's site, when it asked, and its callback. It is
// a slot of the runtime's reply table, named by the handle slot+1 | gen<<32.
type replyPath struct {
	originSrv cluster.MachineID
	start     sim.Time
	done      func(lat sim.Duration, reply interface{})
	gen       uint32 // advances when the first reply frees the slot
	next      uint32 // free-list link: the next free slot+1, 0 for none
}

// Behavior is application logic for one actor. Receive runs when a message
// is dispatched; it should declare its CPU cost via ctx.Use. Outgoing
// effects (sends, replies, spawns) buffered during Receive take effect when
// the declared cost has elapsed on the hosting machine. The Context is the
// runtime's and is reused for later messages: Receive must not keep it.
type Behavior interface {
	Receive(ctx *Context, msg Message)
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(ctx *Context, msg Message)

// Receive calls f.
func (f BehaviorFunc) Receive(ctx *Context, msg Message) { f(ctx, msg) }

// ProfilerHook observes runtime events for the elasticity profiling runtime.
type ProfilerHook interface {
	// OnMessage fires when a message is dispatched to an actor. caller is
	// the sending actor (zero for client senders).
	OnMessage(srv cluster.MachineID, callerType string, caller Ref, callee Ref, calleeType, method string, size int64)
	// OnCPU fires when an actor finishes consuming CPU for one message.
	OnCPU(srv cluster.MachineID, a Ref, typ string, cost sim.Duration)
	// OnNet fires when an actor sends size bytes off-machine.
	OnNet(srv cluster.MachineID, a Ref, typ string, size int64)
}

// PlacementHook decides where newly created actors go (§4.2 "New actor
// creation"). Returning a negative machine ID falls back to random placement.
type PlacementHook interface {
	Place(typ string, creator Ref, creatorSrv cluster.MachineID) cluster.MachineID
}

// instance is one live actor: 128 bytes, two cache lines (its size class
// aligns it to them). The first line holds what send, deliver and start
// read of every message: the home, the mailbox, the pending move, the id and
// the flags. The second holds the type and behavior a turn runs, and what
// the profiler's metadata refresh and a migration read. TestInstanceLayout
// holds the size and the split.
type instance struct {
	srv cluster.MachineID

	// The mailbox is a FIFO over one backing array: queued messages are
	// mailbox[head:]. The array is kept across drains (see enqueue/dequeue),
	// so an actor in steady state queues without allocating.
	mailbox []Message
	head    int

	// pending is the migration requested but not yet begun (it waits for
	// the current turn to end); nil when no move is pending.
	pending *migration
	id      ID

	busy      bool // currently processing a message
	migrating bool
	dead      bool
	pinned    bool

	typ      string
	behavior Behavior
	props    map[string][]Ref
	memSize  int64
	lastMove sim.Time

	// migEpoch invalidates in-flight migration steps when the actor is
	// re-homed (crash recovery) or a newer migration supersedes them.
	migEpoch uint64
}

// The runtime's CPU charges.
const (
	// baseMsgCost is charged per dispatched message to model runtime
	// dispatch overhead.
	baseMsgCost = 20 * sim.Microsecond
	// profilingCost is the additional per-message CPU charge when a
	// profiler hook is attached (Table 3 measures this overhead).
	profilingCost = 2 * sim.Microsecond
	// SerializePerMB converts actor state to CPU time for migration: this
	// much per MB, on each side.
	SerializePerMB = 5 * sim.Millisecond
)

// Runtime hosts actors across a cluster.
type Runtime struct {
	K *sim.Kernel
	C *cluster.Cluster

	profiler  ProfilerHook
	placement PlacementHook

	// actors is indexed by ID: ids are issued sequentially from 1 and never
	// reused, so the table is dense, walking it is ascending-id (= spawn)
	// order, and a stopped actor leaves a nil behind. Read it through inst.
	actors     []*instance
	live       int   // non-nil entries of actors
	on         []int // live actors per machine, indexed by MachineID
	migrations int

	// changed is the change set, one bit per actor id: an actor joins it when
	// it is spawned, stopped, moved (migrated or re-homed by recovery), given
	// a property, resized, pinned or unpinned. TakeChanged empties it.
	changed []uint64

	// inflight tracks live migrations so machine crashes can abort or roll
	// them back; failedMigs counts migrations that did not complete.
	inflight   map[ID]*migration
	failedMigs int

	// MailboxCap, when positive, bounds every actor's mailbox: a delivery
	// arriving at a full mailbox is shed (dropped; a request's reply
	// callback never fires, and its reply slot stays open) instead of growing
	// the queue without limit — overload degrades gracefully rather than
	// melting down. Zero keeps the legacy unbounded mailboxes.
	MailboxCap int

	// The reply table, the head of its free list (slot+1, 0 for none) and
	// the count of replies to requests answered already.
	replies    []replyPath
	freeReply  uint32
	dupReplies int

	shed     int64    // deliveries dropped at full bounded mailboxes
	flights  *flight  // free list of recycled flights
	contexts *Context // free list of recycled Contexts

	tr *trace.Tracer // nil = migration lifecycle untraced
}

// migration is one live migration: requested and pending on its actor
// until beginMigration starts it, at start, then in flight. While it is
// pending, traceID is the trace parent its KindTransfer record will name;
// from then on it is that record's id.
type migration struct {
	inst    *instance
	src     cluster.MachineID
	dst     cluster.MachineID
	epoch   uint64
	start   sim.Time
	onDone  func(ok bool)
	traceID uint64 // the transfer's parent, then its id: parent of commit/rollback
}

// NewRuntime creates a runtime over the given cluster.
func NewRuntime(k *sim.Kernel, c *cluster.Cluster) *Runtime {
	rt := &Runtime{
		K:        k,
		C:        c,
		actors:   make([]*instance, 1), // the zero ID is nobody
		inflight: make(map[ID]*migration),
	}
	c.OnFail(rt.onMachineFail)
	return rt
}

// inst returns the live actor with the given id, or nil: for the zero ID, an
// id never issued, and a stopped actor alike.
func (rt *Runtime) inst(id ID) *instance {
	if id < ID(len(rt.actors)) {
		return rt.actors[id]
	}
	return nil
}

// spawnGrower is the optional profiler capability the runtime uses to
// pre-size dense per-actor accumulators at spawn time, off the per-message
// hook path.
type spawnGrower interface {
	OnSpawn(srv cluster.MachineID, a Ref)
}

// SetProfiler attaches (or detaches, with nil) the profiling hook.
func (rt *Runtime) SetProfiler(p ProfilerHook) { rt.profiler = p }

// SetPlacement attaches (or detaches, with nil) the placement hook.
func (rt *Runtime) SetPlacement(p PlacementHook) { rt.placement = p }

// SetTracer installs (or removes, with nil) the decision tracer; the
// migration lifecycle (transfer, commit, rollback) is recorded through it.
func (rt *Runtime) SetTracer(t *trace.Tracer) { rt.tr = t }

// Migrations reports the total number of completed migrations.
func (rt *Runtime) Migrations() int { return rt.migrations }

// FailedMigrations reports migrations that started but did not complete
// (rolled back or aborted by a machine crash).
func (rt *Runtime) FailedMigrations() int { return rt.failedMigs }

// InFlightMigrations reports migrations currently in progress; a quiesced
// runtime must report zero (no actor may be stuck mid-move).
func (rt *Runtime) InFlightMigrations() int { return len(rt.inflight) }

// OldestMigration reports the age of the oldest in-flight migration (0 = none).
func (rt *Runtime) OldestMigration() (oldest sim.Duration) {
	for _, mig := range rt.inflight {
		oldest = max(oldest, sim.Duration(rt.K.Now()-mig.start))
	}
	return oldest
}

// onMachineFail aborts or rolls back every in-flight migration touching the
// crashed machine. A destination crash rolls the actor back onto its source
// (state never left it authoritatively; buffered mail redelivers there). A
// source crash loses the actor with the machine: the migration is aborted
// and the actor awaits RecoverMachine like any other resident.
func (rt *Runtime) onMachineFail(id cluster.MachineID) {
	ids := make([]ID, 0, len(rt.inflight))
	for aid := range rt.inflight {
		ids = append(ids, aid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, aid := range ids {
		mig := rt.inflight[aid]
		switch id {
		case mig.dst:
			rt.abortMigration(mig, true, "dst-crash")
		case mig.src:
			rt.abortMigration(mig, false, "src-crash")
		}
	}
	// Queued (not yet begun) migrations toward the dead machine fail fast so
	// the initiating LEM can replan instead of waiting forever.
	for _, inst := range rt.actors {
		if inst != nil && inst.pending != nil && inst.pending.dst == id && !inst.migrating {
			inst.failPending()
		}
	}
}

// failPending withdraws the actor's requested, not yet begun migration and
// tells its initiator, if it left a callback, that the move failed.
func (inst *instance) failPending() {
	mig := inst.pending
	inst.pending = nil
	if mig != nil && mig.onDone != nil {
		mig.onDone(false)
	}
}

// abortMigration ends an in-flight migration without committing it. With
// resume, the actor stays live on its source and message processing restarts
// there (destination failure); without, the actor stays frozen on its dead
// source until RecoverMachine re-homes it (source failure).
func (rt *Runtime) abortMigration(mig *migration, resume bool, reason string) {
	inst := mig.inst
	if rt.inflight[inst.id] != mig {
		return
	}
	delete(rt.inflight, inst.id)
	inst.migEpoch++ // invalidate the migration's still-scheduled steps
	inst.migrating = false
	rt.failedMigs++
	rt.tr.Emit(trace.Record{Kind: trace.KindRollback, Parent: mig.traceID,
		Server: int32(mig.src), Target: int32(mig.dst), Actor: uint64(inst.id), Rule: -1, Detail: reason})
	if mig.onDone != nil {
		mig.onDone(false)
	}
	if resume {
		rt.pump(inst)
	}
}

// Spawn creates an actor of the given type, placed via the placement hook
// when one is attached, otherwise on a random up machine.
func (rt *Runtime) Spawn(typ string, b Behavior, creator Ref) Ref {
	srv := cluster.MachineID(-1)
	if rt.placement != nil {
		creatorSrv := cluster.MachineID(-1)
		if inst := rt.inst(creator.ID); inst != nil {
			creatorSrv = inst.srv
		}
		srv = rt.placement.Place(typ, creator, creatorSrv)
	}
	if srv < 0 {
		up := rt.C.UpMachines()
		if len(up) == 0 {
			panic("actor: no machines up")
		}
		srv = up[rt.K.Rand().Intn(len(up))].ID
	}
	return rt.SpawnOn(typ, b, srv)
}

// SpawnOn creates an actor on a specific machine.
func (rt *Runtime) SpawnOn(typ string, b Behavior, srv cluster.MachineID) Ref {
	m := rt.C.Machine(srv)
	if m == nil || !m.Up() {
		panic(fmt.Sprintf("actor: spawn on bad machine %d", srv))
	}
	inst := &instance{
		id:       ID(len(rt.actors)),
		typ:      typ,
		behavior: b,
		srv:      srv,
		lastMove: rt.K.Now(),
	}
	rt.actors = append(rt.actors, inst)
	rt.live++
	rt.countOn(srv)
	rt.mark(inst.id)
	if g, ok := rt.profiler.(spawnGrower); ok {
		g.OnSpawn(srv, Ref{ID: inst.id})
	}
	return Ref{ID: inst.id}
}

// mark adds the actor to the change set.
func (rt *Runtime) mark(id ID) {
	for int(id/64) >= len(rt.changed) {
		rt.changed = append(rt.changed, 0)
	}
	rt.changed[id/64] |= 1 << (id % 64)
}

// countOn adds one to srv's live-actor count, growing the counts to cover
// srv.
func (rt *Runtime) countOn(srv cluster.MachineID) {
	for int(srv) >= len(rt.on) {
		rt.on = append(rt.on, 0)
	}
	rt.on[srv]++
}

// move re-homes the actor on dst: the per-machine counts follow it, its
// last move is now, and it joins the change set.
func (rt *Runtime) move(inst *instance, dst cluster.MachineID) {
	rt.on[inst.srv]--
	rt.countOn(dst)
	inst.srv, inst.lastMove = dst, rt.K.Now()
	rt.mark(inst.id)
}

// TakeChanged ORs the change set into marks, a bitmap over actor ids that it
// grows to cover every id issued (each was marked at spawn), empties the set
// and returns marks. The set has one consumer, the profiler's Snapshot: a
// second caller would take its changes away.
func (rt *Runtime) TakeChanged(marks []uint64) []uint64 {
	for w, word := range rt.changed {
		if w == len(marks) {
			marks = append(marks, 0)
		}
		marks[w] |= word
	}
	clear(rt.changed)
	return marks
}

// RecoverMachine re-homes every actor of a crashed machine onto surviving
// machines, modeling the fault-tolerance mechanism PLASMA inherits from the
// underlying actor runtime (§2.2): actor state is restored from the
// runtime's replication/checkpointing, in-flight processing is lost, and
// queued messages are re-delivered at the new home. Returns the number of
// recovered actors.
func (rt *Runtime) RecoverMachine(srv cluster.MachineID) int {
	up := rt.C.UpMachines()
	if len(up) == 0 {
		return 0
	}
	n := 0
	for _, ref := range rt.ActorsOn(srv) {
		inst := rt.inst(ref.ID)
		if mig := rt.inflight[inst.id]; mig != nil {
			// The machine's crash hook normally aborts these; clean up here
			// too so recovery is safe even if invoked on its own.
			rt.abortMigration(mig, false, "src-recovered")
		}
		dst := up[rt.K.Rand().Intn(len(up))]
		rt.move(inst, dst.ID)
		inst.busy = false // in-flight processing died with the machine
		inst.migrating = false
		inst.migEpoch++ // strand any step of a migration begun before the crash
		inst.failPending()
		dst.AddMem(inst.memSize)
		n++
		rt.pump(inst)
	}
	return n
}

// Stop removes an actor permanently. Queued messages are dropped; an
// in-flight migration is aborted (its initiator is told it failed).
func (rt *Runtime) Stop(ref Ref) {
	inst := rt.inst(ref.ID)
	if inst == nil {
		return
	}
	inst.dead = true
	if mig := rt.inflight[inst.id]; mig != nil {
		rt.abortMigration(mig, false, "actor-stopped")
	}
	inst.failPending()
	rt.C.Machine(inst.srv).AddMem(-inst.memSize)
	rt.actors[ref.ID] = nil
	rt.live--
	rt.on[inst.srv]--
	rt.mark(inst.id)
}

// Exists reports whether the actor is alive.
func (rt *Runtime) Exists(ref Ref) bool { return rt.inst(ref.ID) != nil }

// TypeOf reports an actor's type name ("" if dead).
func (rt *Runtime) TypeOf(ref Ref) string {
	if inst := rt.inst(ref.ID); inst != nil {
		return inst.typ
	}
	return ""
}

// ServerOf reports the machine currently hosting the actor (-1 if dead).
func (rt *Runtime) ServerOf(ref Ref) cluster.MachineID {
	if inst := rt.inst(ref.ID); inst != nil {
		return inst.srv
	}
	return -1
}

// SetProp sets a reference property from outside a message handler.
// Applications set theirs inside handlers (Context.SetProp). Only tests call
// this one; it stays exported because the profile and emr tests do, and an
// export_test.go would not reach them.
func (rt *Runtime) SetProp(ref Ref, name string, refs []Ref) {
	if inst := rt.inst(ref.ID); inst != nil {
		rt.setProp(inst, name, append([]Ref(nil), refs...))
	}
}

// setProp stores a property, allocating the map on first use (most actors
// expose no properties, so instances carry a nil map until one appears).
func (rt *Runtime) setProp(inst *instance, name string, refs []Ref) {
	if inst.props == nil {
		inst.props = make(map[string][]Ref)
	}
	inst.props[name] = refs
	rt.mark(inst.id)
}

// Pin marks the actor as unmovable; Unpin reverses it.
func (rt *Runtime) Pin(ref Ref) {
	if inst := rt.inst(ref.ID); inst != nil {
		inst.pinned = true
		rt.mark(inst.id)
	}
}

// Unpin clears the pinned flag.
func (rt *Runtime) Unpin(ref Ref) {
	if inst := rt.inst(ref.ID); inst != nil {
		inst.pinned = false
		rt.mark(inst.id)
	}
}

// Pinned reports whether the actor is pinned.
func (rt *Runtime) Pinned(ref Ref) bool {
	inst := rt.inst(ref.ID)
	return inst != nil && inst.pinned
}

// ActorsOn returns the live actors hosted on srv, in id order.
func (rt *Runtime) ActorsOn(srv cluster.MachineID) []Ref {
	var refs []Ref
	for _, inst := range rt.actors {
		if inst != nil && inst.srv == srv {
			refs = append(refs, Ref{ID: inst.id})
		}
	}
	return refs
}

// NumActorsOn counts the live actors hosted on srv, from a count kept as
// actors are spawned, stopped and moved.
func (rt *Runtime) NumActorsOn(srv cluster.MachineID) int {
	if srv >= 0 && int(srv) < len(rt.on) {
		return rt.on[srv]
	}
	return 0
}

// Info is one live actor's metadata as Lookup and ForEachActor deliver it:
// everything the elasticity profiling runtime needs per actor, in a single
// visit instead of one lookup per field.
type Info struct {
	Ref       Ref
	Type      string
	Server    cluster.MachineID
	MemBytes  int64
	Pinned    bool
	LastMoved sim.Time
	Props     map[string][]Ref // the actor's own property map (nil if none): read, never write
}

// Lookup returns one live actor's Info; ok is false for any other id.
func (rt *Runtime) Lookup(ref Ref) (info Info, ok bool) {
	inst := rt.inst(ref.ID)
	if inst == nil {
		return Info{}, false
	}
	return Info{Ref: ref, Type: inst.typ, Server: inst.srv, MemBytes: inst.memSize,
		Pinned: inst.pinned, LastMoved: inst.lastMove, Props: inst.props}, true
}

// ForEachActor visits every live actor in id order without allocating; fn
// must not spawn or stop actors.
func (rt *Runtime) ForEachActor(fn func(Info)) {
	for id := range rt.actors {
		if info, ok := rt.Lookup(Ref{ID: ID(id)}); ok {
			fn(info)
		}
	}
}

// NumActors reports the number of live actors.
func (rt *Runtime) NumActors() int { return rt.live }

// MigratingTo reports the destination of the actor's in-flight or pending
// migration, or -1 when no move is underway. The EMR's reservation ledger
// uses it to keep a dedicated server held while its owner is still being
// transferred there.
func (rt *Runtime) MigratingTo(ref Ref) cluster.MachineID {
	if mig := rt.inflight[ref.ID]; mig != nil {
		return mig.dst
	}
	if inst := rt.inst(ref.ID); inst != nil && inst.pending != nil {
		return inst.pending.dst
	}
	return -1
}

// flightKind says what a flight (or a buffered effect) carries.
type flightKind uint8

const (
	flightFree  flightKind = iota // on a free list; firing one is a bug
	flightMsg                     // a message on its way to actor `to`
	flightDelay                   // a SendAfter delay elapsing on the sender's machine
	flightReply                   // a reply on its way to msg.reply's origin
)

// flight is one message, delayed send or reply in transit between two
// machines: the state of the kernel event that carries it. Flights are
// recycled through the runtime's free list, and fire — the callback
// handed to Kernel.After — is built once per struct, so a message
// hop allocates nothing in steady state. A reply flight carries its
// argument and size in msg.Arg and msg.Size and its handle in msg.reply.
type flight struct {
	kind      flightKind
	from, dst cluster.MachineID
	msg       Message
	to        Ref
	fire      func() // reusable arrival closure: rt.arrive(f)
	next      *flight
}

// launch schedules a flight from machine from to machine dst, d from now.
func (rt *Runtime) launch(kind flightKind, from, dst cluster.MachineID, d sim.Duration, msg *Message, to Ref) {
	f := rt.flights
	if f != nil {
		rt.flights = f.next
		f.next = nil
	} else {
		f = &flight{}
		f.fire = func() { rt.arrive(f) }
	}
	f.kind, f.from, f.dst, f.msg, f.to = kind, from, dst, *msg, to
	rt.K.After(d, f.fire)
}

// arrive is a flight's kernel event. The struct goes back to the free list
// first — the event that fired was its only pending reference, and whatever
// the arrival sends next can reuse it at once.
func (rt *Runtime) arrive(f *flight) {
	kind, from, dst, msg, to := f.kind, f.from, f.dst, f.msg, f.to
	if kind == flightFree {
		panic("actor: a recycled flight fired")
	}
	f.kind, f.msg = flightFree, Message{}
	f.next = rt.flights
	rt.flights = f

	if kind == flightDelay {
		rt.send(dst, &msg, to)
		return
	}
	if from != dst {
		rt.C.Machine(dst).AddNetBytes(msg.Size)
	}
	if kind == flightReply {
		// The first reply to arrive frees the slot and runs the callback.
		if rp := rt.openPath(msg.reply); rp != nil {
			start, done := rp.start, rp.done
			rp.gen, rp.done, rp.next, rt.freeReply = rp.gen+1, nil, rt.freeReply, uint32(msg.reply)
			if done != nil {
				done(sim.Duration(rt.K.Now()-start), msg.Arg)
			}
		}
		return
	}
	cur := rt.inst(to.ID)
	if cur == nil {
		return
	}
	if cur.srv != dst {
		// Actor moved while the message was in flight: forward.
		rt.send(dst, &msg, to)
		return
	}
	rt.deliver(cur, &msg)
}

// openPath returns the reply path of handle h while its request is open. A
// reply to a request answered already gets nil, and is counted.
func (rt *Runtime) openPath(h uint64) *replyPath {
	if rp := &rt.replies[uint32(h)-1]; rp.gen == uint32(h>>32) {
		return rp
	}
	rt.dupReplies++
	return nil
}

// DuplicateReplies reports replies to requests answered already, dropped at
// commit or on arrival; a correct application keeps it at zero.
func (rt *Runtime) DuplicateReplies() int { return rt.dupReplies }

// send routes a message to an actor, resolving its location at delivery
// time; messages chase migrated actors with an extra forwarding hop. The
// send side of the network accounting happens here, the receive side when
// the flight arrives.
func (rt *Runtime) send(fromSrv cluster.MachineID, msg *Message, to Ref) {
	inst := rt.inst(to.ID)
	if inst == nil {
		return // dead letter
	}
	dstSrv := inst.srv
	lat := rt.C.TransferLatency(fromSrv, dstSrv, msg.Size)
	if fromSrv != dstSrv {
		rt.C.Machine(fromSrv).AddNetBytes(msg.Size)
	}
	rt.launch(flightMsg, fromSrv, dstSrv, lat, msg, to)
}

// deliver hands a message that reached its actor's machine to the actor. An
// actor that can run now with nothing queued starts its turn on it at once,
// and the mailbox is never touched; otherwise the message queues behind the
// rest, or is shed when the bounded mailbox is full.
func (rt *Runtime) deliver(inst *instance, msg *Message) {
	if inst.queued() == 0 && inst.pending == nil {
		if m := rt.free(inst); m != nil {
			rt.start(inst, m, msg)
			return
		}
	}
	if rt.MailboxCap > 0 && inst.queued() >= rt.MailboxCap {
		rt.shed++
		rt.tr.Emit(trace.Record{Kind: trace.KindShed, Server: int32(inst.srv), Target: -1,
			Actor: uint64(inst.id), Rule: -1, Value: float64(rt.MailboxCap), Detail: msg.Method})
		return
	}
	inst.enqueue(msg)
	rt.pump(inst)
}

// queued reports the number of messages waiting in the mailbox.
func (inst *instance) queued() int { return len(inst.mailbox) - inst.head }

// enqueue appends to the mailbox. When the backing array is full and at
// least half of it is consumed prefix, the queued messages slide to the
// front instead of the array growing; a fuller one moves to an array of
// exactly twice its size (append grows by a quarter, slices.Grow past 2×).
// Either way each message is moved a constant number of times, amortized.
func (inst *instance) enqueue(msg *Message) {
	if n := len(inst.mailbox); n == cap(inst.mailbox) && inst.head > 0 && inst.head >= n/2 {
		live := copy(inst.mailbox, inst.mailbox[inst.head:])
		clear(inst.mailbox[live:])
		inst.mailbox, inst.head = inst.mailbox[:live], 0
	} else if n == cap(inst.mailbox) {
		inst.mailbox, inst.head = append(make([]Message, 0, 2*n), inst.mailbox[inst.head:]...), 0
	}
	inst.mailbox = append(inst.mailbox, *msg)
}

// dequeue removes the oldest queued message into msg, resetting a drained
// mailbox to the start of its backing array.
func (inst *instance) dequeue(msg *Message) {
	*msg = inst.mailbox[inst.head]
	inst.mailbox[inst.head] = Message{}
	inst.head++
	if inst.head == len(inst.mailbox) {
		inst.mailbox, inst.head = inst.mailbox[:0], 0
	}
}

// ShedRequests reports deliveries dropped at full bounded mailboxes.
func (rt *Runtime) ShedRequests() int64 { return rt.shed }

// free returns the actor's machine if the actor may start a turn there now:
// it is not busy, migrating or dead, and the machine is in service (a crashed
// machine processes nothing; queued mail drains after recovery).
func (rt *Runtime) free(inst *instance) *cluster.Machine {
	if inst.busy || inst.migrating || inst.dead {
		return nil
	}
	if m := rt.C.Machine(inst.srv); m != nil && m.Up() {
		return m
	}
	return nil
}

// pump moves a free actor on: a move requested while it was busy begins now,
// ahead of any queued mail, or else its oldest queued message starts a turn.
func (rt *Runtime) pump(inst *instance) {
	machine := rt.free(inst)
	if machine == nil {
		return
	}
	if inst.pending != nil {
		rt.beginMigration(inst)
		return
	}
	if inst.queued() > 0 {
		rt.start(inst, machine, nil)
	}
}

// start is the one way a turn begins, on a free actor on its up machine: the
// turn runs on msg, when deliver hands one over, or else on the message
// dequeued from the mailbox. Receive runs now; its declared cost then
// occupies the machine, and finish follows.
func (rt *Runtime) start(inst *instance, machine *cluster.Machine, msg *Message) {
	inst.busy = true

	ctx := rt.contexts
	if ctx != nil {
		rt.contexts = ctx.next
		ctx.next = nil
	} else {
		ctx = &Context{rt: rt}
		ctx.done = func() { rt.finish(ctx) }
	}
	ctx.inst, ctx.srv = inst, inst.srv
	if msg != nil {
		ctx.msg = *msg
	} else {
		inst.dequeue(&ctx.msg)
	}

	cost := baseMsgCost
	if rt.profiler != nil {
		cost += profilingCost
		rt.profiler.OnMessage(inst.srv, ctx.msg.SenderType, ctx.msg.Sender, Ref{ID: inst.id}, inst.typ, ctx.msg.Method, ctx.msg.Size)
	}
	inst.behavior.Receive(ctx, ctx.msg)
	ctx.cost = cost + ctx.cpu
	machine.Exec(ctx.cost, ctx.done)
}

// finish is a turn's Exec completion, on the machine the turn ran on: the
// declared cost has elapsed, so the buffered effects take place, the Context
// is recycled and the actor moves on to its next message. A turn whose
// machine crashed under it never gets here (Machine drops the completion),
// and its Context is simply never reused.
func (rt *Runtime) finish(ctx *Context) {
	inst, srv := ctx.inst, ctx.srv
	if inst == nil {
		panic("actor: a recycled Context completed")
	}
	if rt.profiler != nil {
		// Attribute the actual core-occupancy time, so per-actor CPU
		// shares are comparable with server utilization.
		rt.profiler.OnCPU(srv, Ref{ID: inst.id}, inst.typ, rt.C.Machine(srv).ScaledCost(ctx.cost))
	}
	ctx.commit()
	ctx.inst, ctx.msg, ctx.cpu = nil, Message{}, 0
	ctx.next = rt.contexts
	rt.contexts = ctx

	inst.busy = false
	rt.pump(inst)
}

// Migrate asks the runtime to move an actor to dst. The move happens after
// the actor finishes its current message; onDone (optional) reports whether
// the migration was carried out. Pinned and dead actors refuse.
func (rt *Runtime) Migrate(ref Ref, dst cluster.MachineID, onDone func(ok bool)) {
	rt.MigrateTraced(ref, dst, 0, onDone)
}

// MigrateTraced is Migrate with a causal trace parent: the migration's
// KindTransfer record is parented to it (the EMR passes the admission
// record's id, so a trace links propose → admit → transfer → commit).
func (rt *Runtime) MigrateTraced(ref Ref, dst cluster.MachineID, parent uint64, onDone func(ok bool)) {
	inst := rt.inst(ref.ID)
	fail := func() {
		if onDone != nil {
			onDone(false)
		}
	}
	if inst == nil || inst.pinned || inst.migrating || inst.pending != nil {
		fail()
		return
	}
	m := rt.C.Machine(dst)
	if m == nil || !m.Up() || dst == inst.srv {
		fail()
		return
	}
	inst.pending = &migration{inst: inst, dst: dst, onDone: onDone, traceID: parent}
	if !inst.busy {
		rt.beginMigration(inst)
	}
}

// beginMigration starts a pending migration, from MigrateTraced when the
// actor is idle or from pump when its turn ends.
//
// Serialize on the source, transfer, deserialize on the destination, then
// resume message processing there. Every asynchronous step revalidates the
// migration: a crash of either endpoint (or a Stop, or a crash-recovery
// re-home) aborts it via the epoch guard, and the actor either resumes on
// its source with its buffered mail intact or awaits RecoverMachine —
// never a permanently stuck `migrating` flag. Each step runs directly in
// the Exec completion of the one before it.
func (rt *Runtime) beginMigration(inst *instance) {
	mig := inst.pending
	dst := mig.dst
	if dstM := rt.C.Machine(dst); dstM == nil || !dstM.Up() || inst.dead {
		inst.failPending()
		rt.pump(inst)
		return
	}
	inst.pending = nil
	inst.migrating = true
	inst.migEpoch++
	src := inst.srv
	mig.src, mig.epoch, mig.start = src, inst.migEpoch, rt.K.Now()
	rt.inflight[inst.id] = mig
	mig.traceID = rt.tr.Emit(trace.Record{Kind: trace.KindTransfer, Parent: mig.traceID,
		Server: int32(src), Target: int32(dst), Actor: uint64(inst.id), Rule: -1, Value: float64(inst.memSize)})
	stateMB := float64(inst.memSize) / (1 << 20)
	serCost := sim.Duration(stateMB * float64(SerializePerMB))

	rt.C.Machine(src).Exec(serCost, func() { rt.migTransfer(mig, serCost) })
}

// migTransfer is the post-serialize step: charge the state transfer to
// both NICs and schedule the arrival.
func (rt *Runtime) migTransfer(mig *migration, serCost sim.Duration) {
	if !rt.migValid(mig) {
		return
	}
	inst, src, dst := mig.inst, mig.src, mig.dst
	lat := rt.C.TransferLatency(src, dst, inst.memSize)
	rt.C.Machine(src).AddNetBytes(inst.memSize)
	rt.C.Machine(dst).AddNetBytes(inst.memSize)
	rt.K.After(lat, func() {
		if !rt.migValid(mig) {
			return
		}
		if !rt.C.Machine(dst).Up() {
			// Destination lost mid-transfer (e.g. decommissioned; crashes
			// are caught by the failure hook): roll back to the source.
			rt.abortMigration(mig, true, "dst-down")
			return
		}
		rt.C.Machine(dst).Exec(serCost, func() { rt.migCommit(mig) })
	})
}

// migCommit is the post-deserialize step: re-home the actor and resume it
// on the destination.
func (rt *Runtime) migCommit(mig *migration) {
	if !rt.migValid(mig) {
		return
	}
	inst, src, dst := mig.inst, mig.src, mig.dst
	if !rt.C.Machine(dst).Up() {
		rt.abortMigration(mig, true, "dst-down")
		return
	}
	delete(rt.inflight, inst.id)
	rt.C.Machine(src).AddMem(-inst.memSize)
	rt.C.Machine(dst).AddMem(inst.memSize)
	rt.move(inst, dst)
	inst.migrating = false
	rt.migrations++
	rt.tr.Emit(trace.Record{Kind: trace.KindCommit, Parent: mig.traceID,
		Server: int32(src), Target: int32(dst), Actor: uint64(inst.id), Rule: -1})
	if mig.onDone != nil {
		mig.onDone(true)
	}
	rt.pump(inst)
}

// migValid reports whether an in-flight migration is still the actor's
// current one (not aborted, superseded, or orphaned by death/recovery).
func (rt *Runtime) migValid(mig *migration) bool {
	return rt.inflight[mig.inst.id] == mig && mig.inst.migEpoch == mig.epoch && !mig.inst.dead
}

// Context carries per-message runtime operations for Behavior.Receive.
// Outgoing effects are buffered and committed once the declared CPU cost
// has elapsed.
//
// A Context is valid only during the Receive call it was passed to: the
// runtime recycles it for a later message once the turn completes, so a
// handler must not retain it (or call its methods from a callback that runs
// later).
type Context struct {
	rt   *Runtime
	inst *instance // nil while on a free list
	msg  Message
	srv  cluster.MachineID // machine the turn runs on

	cpu     sim.Duration
	cost    sim.Duration // total handed to Machine.Exec
	effects []effect     // reused across turns
	done    func()       // reusable Exec completion: rt.finish(c)
	next    *Context     // free-list link
}

// effect is one buffered outgoing send, delayed send or reply, replayed in
// order by commit. A reply keeps its argument and size in msg.Arg and
// msg.Size and its handle in msg.reply, as a reply flight does.
type effect struct {
	kind  flightKind
	msg   Message
	to    Ref
	delay sim.Duration
}

// Self returns the receiving actor's ref.
func (c *Context) Self() Ref { return Ref{ID: c.inst.id} }

// Now returns the current virtual time.
func (c *Context) Now() sim.Time { return c.rt.K.Now() }

// Use declares cpu cost for processing the current message; multiple calls
// accumulate.
func (c *Context) Use(cpu sim.Duration) {
	if cpu > 0 {
		c.cpu += cpu
	}
}

// Send asynchronously delivers a new message (no reply path).
func (c *Context) Send(to Ref, method string, arg interface{}, size int64) {
	c.push(flightMsg, to, 0, Message{Method: method, Arg: arg, Size: size, Sender: c.Self(), SenderType: c.inst.typ})
}

// SendAfter delivers a new message after an extra delay beyond the current
// message's completion (for periodic/self-paced workloads).
func (c *Context) SendAfter(d sim.Duration, to Ref, method string, arg interface{}, size int64) {
	c.push(flightDelay, to, d, Message{Method: method, Arg: arg, Size: size, Sender: c.Self(), SenderType: c.inst.typ})
}

// Forward passes the current message's reply path along to another actor,
// so a downstream actor can Reply to the original requester.
func (c *Context) Forward(to Ref, method string, arg interface{}, size int64) {
	c.push(flightMsg, to, 0, Message{Method: method, Arg: arg, Size: size, Sender: c.Self(), SenderType: c.inst.typ, reply: c.msg.reply})
}

// Reply answers the current message's requester, if it expects a reply.
func (c *Context) Reply(arg interface{}, size int64) {
	if c.msg.reply == 0 {
		return
	}
	c.push(flightReply, Ref{}, 0, Message{Arg: arg, Size: size, reply: c.msg.reply})
	if c.rt.profiler != nil {
		c.rt.profiler.OnNet(c.inst.srv, c.Self(), c.inst.typ, size)
	}
}

func (c *Context) push(kind flightKind, to Ref, delay sim.Duration, msg Message) {
	c.effects = append(c.effects, effect{kind: kind, msg: msg, to: to, delay: delay})
}

// SetProp publishes a reference property visible to EPL `ref(...)`
// conditions. The update is immediate (metadata, not messaging).
func (c *Context) SetProp(name string, refs []Ref) {
	c.rt.setProp(c.inst, name, append([]Ref(nil), refs...))
}

// SetMemSize declares the actor's state size in bytes (drives machine
// memory accounting and migration cost).
func (c *Context) SetMemSize(bytes int64) {
	delta := bytes - c.inst.memSize
	c.inst.memSize = bytes
	c.rt.C.Machine(c.inst.srv).AddMem(delta)
	c.rt.mark(c.inst.id)
}

// commit applies the buffered effects, in the order the handler issued
// them, from the server the message was processed on.
func (c *Context) commit() {
	rt, srv := c.rt, c.srv
	for i := range c.effects {
		e := &c.effects[i]
		switch e.kind {
		case flightMsg:
			rt.send(srv, &e.msg, e.to)
		case flightDelay:
			// The delay elapses on the sending machine, then the send
			// routes normally.
			rt.launch(flightDelay, srv, srv, e.delay, &e.msg, e.to)
		case flightReply:
			rp := rt.openPath(e.msg.reply)
			if rp == nil {
				break // answered already: this reply goes nowhere
			}
			origin := rp.originSrv
			lat := rt.C.TransferLatency(srv, origin, e.msg.Size)
			if srv != origin {
				rt.C.Machine(srv).AddNetBytes(e.msg.Size)
			}
			rt.launch(flightReply, srv, origin, lat, &e.msg, Ref{})
		}
		*e = effect{} // drop the payload references
	}
	c.effects = c.effects[:0]
}

// Client issues latency-tracked requests into the actor system from a
// client machine, mirroring the paper's client driver instances.
type Client struct {
	rt   *Runtime
	Site cluster.MachineID // machine the client runs on
}

// NewClient creates a client homed on the given machine.
func NewClient(rt *Runtime, site cluster.MachineID) *Client {
	return &Client{rt: rt, Site: site}
}

// Request sends a message and invokes done with the end-to-end latency when
// the (possibly multi-hop) reply arrives at the client's site, once: for the
// first reply. The reply path takes a reused slot of the runtime's table.
func (cl *Client) Request(to Ref, method string, arg interface{}, size int64, done func(lat sim.Duration, reply interface{})) {
	rt := cl.rt
	slot := rt.freeReply
	if slot == 0 {
		rt.replies = append(rt.replies, replyPath{})
		slot = uint32(len(rt.replies))
	}
	rp := &rt.replies[slot-1]
	rt.freeReply = rp.next
	*rp = replyPath{originSrv: cl.Site, start: rt.K.Now(), done: done, gen: rp.gen}
	msg := Message{
		Method: method, Arg: arg, Size: size, SenderType: ClientCaller,
		reply: uint64(slot) | uint64(rp.gen)<<32,
	}
	rt.send(cl.Site, &msg, to)
}

// Send delivers a one-way client message (no reply expected).
func (cl *Client) Send(to Ref, method string, arg interface{}, size int64) {
	msg := Message{Method: method, Arg: arg, Size: size, SenderType: ClientCaller}
	cl.rt.send(cl.Site, &msg, to)
}
