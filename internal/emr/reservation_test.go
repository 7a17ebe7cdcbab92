package emr

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// Regression tests for the reservation ledger's two admission races: the
// cleanup pass dropping a reservation while the owner's admitted transfer
// is still in flight, and a lost QREPLY leaving a stale target-side
// reservation that blocks the server for everyone else.

// The cleanup pass runs at every period boundary; while the owner's
// admitted migration to the reserved server is in flight, ServerOf still
// reports the source, which must not be read as "the owner moved away".
// Pre-fix, cleanupReservations deleted the reservation in exactly that
// window, letting a racing balance action put a foreign actor onto the
// dedicated server mid-transfer.
func TestReservationHeldDuringInFlightReserveTransfer(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})

	// 64 MB of state: serialization alone costs 320 ms per side, so the
	// transfer spans several cleanup passes.
	owner := e.rt.SpawnOn("VIP", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.SetMemSize(64 << 20)
	}), 0)
	actor.NewClient(e.rt, 0).Send(owner, "grow", nil, 1)
	e.k.RunUntilIdle()

	// The reserve was admitted: the ledger dedicates server 1 to the owner
	// and the transfer begins.
	m.srv(1).owner = owner
	e.rt.Migrate(owner, 1, nil)
	if !e.rt.Migrating(owner) || e.rt.ServerOf(owner) != 0 {
		t.Fatalf("transfer not in flight (migrating=%v srv=%d)",
			e.rt.Migrating(owner), e.rt.ServerOf(owner))
	}

	// A period boundary's cleanup pass lands mid-transfer.
	m.cleanupReservations()
	if got := m.srv(1).owner; got != owner {
		t.Fatalf("reservation dropped while the owner's transfer is in flight (reserved[1]=%v)", got)
	}

	// So a racing balance migration is still denied admission.
	foreign := e.rt.SpawnOn("Worker", worker(45), 0)
	snap := e.prof.Snapshot(nil)
	ok, reason := m.checkIdleRes(Action{Actor: foreign, Src: 0, Trg: 1, Kind: epl.KindBalance, Res: epl.CPU}, snap)
	if ok || reason != "reserved" {
		t.Fatalf("foreign actor admitted onto the reserved server mid-transfer (ok=%v reason=%q)", ok, reason)
	}

	// Once the owner settles, the reservation must of course survive too.
	e.k.RunUntilIdle()
	if got := e.rt.ServerOf(owner); got != 1 {
		t.Fatalf("owner never arrived on the reserved server (srv=%d)", got)
	}
	m.cleanupReservations()
	if m.srv(1).owner != owner {
		t.Fatal("reservation dropped after the owner settled on its server")
	}
}

// dropFirstQReply swallows exactly one QREPLY — the reserve admission's
// answer — and delivers everything else.
type dropFirstQReply struct{ dropped bool }

func (d *dropFirstQReply) Intercept(kind chaos.MsgKind, _, _ chaos.Endpoint) chaos.Decision {
	if kind == chaos.QReply && !d.dropped {
		d.dropped = true
		return chaos.Decision{Verdict: chaos.Drop}
	}
	return chaos.Decision{Verdict: chaos.Deliver}
}

// When the target LEM admits a reserve QUERY it records the reservation,
// but if the QREPLY is lost the source times out and never migrates.
// Pre-fix, that stale reservation blocked the target for every other
// actor; the target must release its own grant after the query timeout.
func TestDroppedQReplyReleasesTargetReservation(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	d := &dropFirstQReply{}
	m.SetChaos(d)

	owner := e.rt.SpawnOn("VIP", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {}), 0)
	foreign := e.rt.SpawnOn("Worker", worker(45), 0)
	snap := e.prof.Snapshot(nil)

	// A reserve action's admission round trip; the QREPLY is dropped.
	m.queryAdmission(Action{Actor: owner, Src: 0, Trg: 1, Kind: epl.KindReserve, Res: epl.CPU}, snap, false)
	e.k.Run(sim.Time(2 * sim.Millisecond)) // QUERY delivered, grant recorded
	if m.srv(1).owner != owner {
		t.Fatal("reserve admission did not record the target-side grant")
	}
	if !d.dropped {
		t.Fatal("QREPLY not dropped; test is vacuous")
	}

	// Past the query timeout: the source counted a denial and the target
	// must have released its orphaned grant.
	e.k.Run(sim.Time(10 * sim.Millisecond))
	if m.Stats.QueryTimeouts != 1 {
		t.Fatalf("query timeouts = %d, want 1", m.Stats.QueryTimeouts)
	}
	if !m.srv(1).owner.Zero() {
		t.Fatal("stale reservation still blocks the target after the query timeout")
	}
	if m.Stats.ReleasedReservations != 1 {
		t.Fatalf("released reservations = %d, want 1", m.Stats.ReleasedReservations)
	}

	// The server admits other actors again.
	ok, reason := m.checkIdleRes(Action{Actor: foreign, Src: 0, Trg: 1, Kind: epl.KindBalance, Res: epl.CPU}, snap)
	if !ok {
		t.Fatalf("server still rejects admissions after the orphaned grant (reason=%q)", reason)
	}
}

// A grant's release-on-timeout closure outlives the grant. When the same
// server is granted to the same owner again before the closure fires (the
// first QREPLY was lost, the source asked again), the stale closure must
// leave the newer grant alone even though that grant's transfer has not
// started yet: the grant epoch in the server's record is what tells them
// apart.
func TestStaleReleaseClosureCannotRevokeNewerGrant(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.SetChaos(&dropFirstQReply{})
	owner := e.rt.SpawnOn("VIP", quiet(), 0)
	snap := e.prof.Snapshot(nil)
	reserve := Action{Actor: owner, Src: 0, Trg: 1, Kind: epl.KindReserve, Res: epl.CPU}

	// Grant 1 lands at 1 ms (its QREPLY is dropped; its closure fires at
	// 5 ms). Grant 2 lands at 4.5 ms; its QREPLY starts the transfer at
	// 5.5 ms — after the stale closure has looked.
	m.queryAdmission(reserve, snap, false)
	e.k.At(sim.Time(3500), func() { m.queryAdmission(reserve, snap, false) })
	e.k.Run(sim.Time(5200))
	if s := m.srv(1); s.owner != owner || s.epoch != 2 {
		t.Fatalf("at 5.2 ms: owner=%v epoch=%d, want the second grant standing", s.owner, s.epoch)
	}
	if e.rt.MigratingTo(owner) == 1 {
		t.Fatal("the transfer already started; the epoch check is not what held the grant")
	}
	e.k.RunUntilIdle()
	if m.Stats.ReleasedReservations != 0 {
		t.Fatalf("released reservations = %d: a stale closure revoked the newer grant", m.Stats.ReleasedReservations)
	}
	if e.rt.ServerOf(owner) != 1 || m.srv(1).owner != owner {
		t.Fatalf("owner on %d, server 1 reserved for %v", e.rt.ServerOf(owner), m.srv(1).owner)
	}
}
