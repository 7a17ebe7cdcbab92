package emr

import (
	"slices"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Tests for the reservation lease (reserveLease) and grant-time evacuation
// (Config.ReserveEvacuate): a dedication that no reserve intent keeps naming
// must lapse back to the shared pool, and a grant on a server with existing
// residents must clear them out for the owner.

func quiet() actor.Behavior {
	return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {})
}

func TestReserveLeaseExpiresWithoutRefresh(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol,
		Config{Period: sim.Second, MinResidence: sim.Millisecond})
	// An owner sits on its dedicated server, but no reserve rule exists to
	// re-name it: the lease must lapse after reserveLease periods.
	owner := e.rt.SpawnOn("VIP", quiet(), 1)
	m.srv(1).owner = owner
	m.Start()
	e.k.Run(sim.Time(reserveLease*sim.Second + sim.Second/2))
	if m.srv(1).owner != owner {
		t.Fatalf("reservation dropped within its lease (reserved[1]=%v)", m.srv(1).owner)
	}
	e.k.Run(sim.Time((reserveLease + 2) * sim.Second))
	if !m.srv(1).owner.Zero() {
		t.Fatal("unrefreshed reservation still held after reserveLease periods")
	}
	if m.Stats.ExpiredReservations != 1 {
		t.Fatalf("ExpiredReservations = %d, want 1", m.Stats.ExpiredReservations)
	}
}

// Several leases lapsing in one period are reported in ascending server id,
// whatever order they were granted in: cleanupReservations walks the server
// table, so the order is the table's and not a sort's.
func TestReserveLeasesExpireInServerOrder(t *testing.T) {
	e := newEnv(1, 6, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol,
		Config{Period: sim.Second, MinResidence: sim.Millisecond})
	ring := trace.NewRing(1 << 10)
	tr := trace.New(ring)
	tr.SetClock(e.k.Now)
	m.SetTracer(tr)
	for _, srv := range []cluster.MachineID{4, 1, 5, 2} {
		m.srv(srv).owner = e.rt.SpawnOn("VIP", quiet(), srv)
	}
	m.Start()
	e.k.Run(sim.Time((reserveLease + 2) * sim.Second))

	var expired []int32
	for _, r := range ring.Records() {
		if r.Kind == trace.KindDeny && r.Detail == "reserve-expired" {
			if r.Tick != reserveLease+1 {
				t.Fatalf("lease on server %d expired in period %d, want %d", r.Server, r.Tick, reserveLease+1)
			}
			expired = append(expired, r.Server)
		}
	}
	if !slices.Equal(expired, []int32{1, 2, 4, 5}) {
		t.Fatalf("reserve-expired records for servers %v, want [1 2 4 5] in that order", expired)
	}
	if m.Stats.ExpiredReservations != 4 {
		t.Fatalf("ExpiredReservations = %d, want 4", m.Stats.ExpiredReservations)
	}
}

// Under a default Config, a grant made by a reserve rule lapses once the
// rule stops firing: the hot folder's load stops at 6 s, and within
// reserveLease+1 periods its server is back in the shared pool.
func TestReserveGrantLapsesWhenRuleStops(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`
server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);
`)
	hot := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(18 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	cold := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(6 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	stop := sim.Time(6 * sim.Second)
	cl := actor.NewClient(e.rt, 2)
	e.k.Every(20*sim.Millisecond, func() bool {
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(cold, "open", nil, 64, nil)
		return e.k.Now() < stop
	})
	e.k.Run(stop)
	srv := e.rt.ServerOf(hot)
	if srv == 0 || m.srv(srv).owner != hot {
		t.Fatalf("hot folder on %d (reserved for %v), want a dedicated server", srv, m.srv(srv).owner)
	}
	expired := m.Stats.ExpiredReservations
	e.k.Run(stop + sim.Time((reserveLease+1)*sim.Second) + sim.Time(sim.Second/2))
	if !m.srv(srv).shared() {
		t.Fatalf("server %d still reserved for %v %d periods after the rule stopped firing",
			srv, m.srv(srv).owner, reserveLease+1)
	}
	if got := m.Stats.ExpiredReservations - expired; got != 1 {
		t.Fatalf("%d reservations expired after the rule stopped firing, want 1", got)
	}
}

func TestReserveLeaseRefreshedByStandingIntent(t *testing.T) {
	e := newEnv(1, 3, 1)
	// The same reserve rule as TestReserveDedicatesServer: while the folder
	// stays hot the rule keeps firing, each intent refreshes the lease, and
	// the dedication must outlive many leases. The lease rides out the
	// transfer window (while the owner is mid-flight neither the cooling
	// source nor the not-yet-hot target trips the rule, so no intent names
	// the owner for a period or two).
	pol := epl.MustParse(`
server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);
`)
	hot := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(30 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	cold := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	e.rt.SpawnOn("Other", quiet(), 2)

	m := New(e.k, e.c, e.rt, e.prof, pol,
		Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	cl := actor.NewClient(e.rt, 2)
	e.k.Every(20*sim.Millisecond, func() bool {
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(cold, "open", nil, 64, nil)
		return e.k.Now() < sim.Time(12*sim.Second)
	})
	e.k.Run(sim.Time(14 * sim.Second))

	if got := e.rt.ServerOf(hot); got != 1 {
		t.Fatalf("hot folder on %d, want reserved server 1", got)
	}
	// Held for ~11 periods against a lease of reserveLease: only the
	// standing intents' refreshes can explain it. (The stat is not asserted
	// zero: the first thin snapshot may briefly qualify the cold folder too,
	// and that spurious dedication expiring is the lease doing its job.)
	if owner := m.srv(1).owner; owner != hot {
		t.Fatalf("reservation lapsed despite standing reserve intents (reserved[1]=%v)", owner)
	}
}

func TestReserveGrantEvacuatesResidents(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`
server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);
`)
	hot := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(30 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	cold := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	// Server 1 (the reserve's idlest candidate) already houses two quiet
	// residents; a dedication must push them off, not share with them.
	r1 := e.rt.SpawnOn("Other", quiet(), 1)
	r2 := e.rt.SpawnOn("Other", quiet(), 1)

	m := New(e.k, e.c, e.rt, e.prof, pol,
		Config{Period: sim.Second, MinResidence: sim.Millisecond, ReserveEvacuate: true})
	m.Start()
	cl := actor.NewClient(e.rt, 2)
	e.k.Every(20*sim.Millisecond, func() bool {
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(cold, "open", nil, 64, nil)
		return e.k.Now() < sim.Time(8*sim.Second)
	})
	e.k.Run(sim.Time(10 * sim.Second))

	srv := e.rt.ServerOf(hot)
	if owner := m.srv(srv).owner; owner != hot {
		t.Fatalf("hot folder's server %d not reserved for it (reserved=%v)", srv, owner)
	}
	for _, r := range []actor.Ref{r1, r2} {
		if got := e.rt.ServerOf(r); got == srv {
			t.Fatalf("resident %v still shares the dedicated server %d", r, srv)
		}
	}
	if got := len(e.rt.ActorsOn(srv)); got != 1 {
		t.Fatalf("dedicated server holds %d actors, want only the owner", got)
	}
}

func TestReserveGrantKeepsResidentsWithoutEvacuate(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`
server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);
`)
	hot := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(30 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	cold := e.rt.SpawnOn("Folder", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(10 * sim.Millisecond)
		ctx.Reply(nil, 32)
	}), 0)
	r1 := e.rt.SpawnOn("Other", quiet(), 1)

	m := New(e.k, e.c, e.rt, e.prof, pol,
		Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	cl := actor.NewClient(e.rt, 2)
	e.k.Every(20*sim.Millisecond, func() bool {
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(hot, "open", nil, 64, nil)
		cl.Request(cold, "open", nil, 64, nil)
		return e.k.Now() < sim.Time(8*sim.Second)
	})
	e.k.Run(sim.Time(10 * sim.Second))

	// Without evacuation the dedication is exclusivity against NEW
	// admissions only; the idle resident stays put.
	if got := e.rt.ServerOf(r1); got != 1 {
		t.Fatalf("resident moved to %d with ReserveEvacuate off, want 1", got)
	}
}
