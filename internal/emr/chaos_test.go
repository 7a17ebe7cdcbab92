package emr

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Control-plane chaos: the EMR must degrade gracefully — not stall, not
// double-execute — when REPORT/RREPLY/QUERY/QREPLY messages are dropped,
// delayed, or duplicated by a seeded injector.

func hotServerEnv(t *testing.T) (*env, []actor.Ref, *epl.Policy) {
	t.Helper()
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	return e, refs, pol
}

// Acceptance: with a fixed fraction of REPORTs dropped, GEMs still evaluate
// at the report-window deadline on the partial snapshot (retransmissions and
// the stale cache filling the gaps) and elasticity actions still happen.
func TestGEMProceedsOnPartialSnapshotUnderReportLoss(t *testing.T) {
	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	inj := chaos.NewInjector(7, e.k.Now)
	inj.SetFaults(chaos.Report, chaos.Faults{DropProb: 0.5})
	m.SetChaos(inj)
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(20 * sim.Second))

	if inj.Stats.Dropped[chaos.Report] == 0 {
		t.Fatal("injector dropped nothing; test is vacuous")
	}
	if m.Stats.RetriedReports == 0 {
		t.Fatal("no REPORT retransmissions under loss")
	}
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("elasticity stalled under REPORT loss")
	}
	on0, on1 := len(e.rt.ActorsOn(0)), len(e.rt.ActorsOn(1))
	if on1 == 0 {
		t.Fatalf("load never left the hot server (0:%d 1:%d)", on0, on1)
	}
	if on0+on1 != 4 {
		t.Fatalf("workers lost under chaos: %d + %d", on0, on1)
	}
}

// Under heavy loss the retry budget is often exhausted; the GEM then plans
// on last REPORTs no older than stalePeriods.
func TestStaleCacheStandsInForLostReports(t *testing.T) {
	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	inj := chaos.NewInjector(3, e.k.Now)
	inj.SetFaults(chaos.Report, chaos.Faults{DropProb: 0.7})
	m.SetChaos(inj)
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(30 * sim.Second))

	if m.Stats.StaleReportsUsed == 0 {
		t.Fatal("stale cache never used under 70% REPORT loss")
	}
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("elasticity stalled under heavy REPORT loss")
	}
	if len(e.rt.ActorsOn(0))+len(e.rt.ActorsOn(1)) != 4 {
		t.Fatal("workers lost under chaos")
	}
}

// A lost admission reply is a denial, not a hang: the source LEM times out,
// counts it, and the planner replans next period.
func TestQueryReplyLossTimesOutIntoDenial(t *testing.T) {
	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	inj := chaos.NewInjector(5, e.k.Now)
	inj.SetFaults(chaos.QReply, chaos.Faults{DropProb: 1})
	m.SetChaos(inj)
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(10 * sim.Second))

	if m.Stats.QueryTimeouts == 0 {
		t.Fatal("no query timeouts with every QREPLY dropped")
	}
	if m.Stats.DeniedAdmissions == 0 {
		t.Fatal("timeouts not counted as denials")
	}
	if m.Stats.ExecutedMigrations != 0 {
		t.Fatal("migration executed without an admission reply")
	}
	for _, r := range refs {
		if e.rt.ServerOf(r) != 0 {
			t.Fatal("actor moved despite denied admissions")
		}
	}
}

// Duplicated control messages must be idempotent end to end: a run with
// every message duplicated behaves exactly like the clean run.
func TestDuplicatedMessagesAreIdempotent(t *testing.T) {
	run := func(dup bool) (Stats, int, int) {
		e, refs, pol := hotServerEnv(t)
		m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
		if dup {
			inj := chaos.NewInjector(9, e.k.Now)
			inj.SetAllFaults(chaos.Faults{DupProb: 1})
			m.SetChaos(inj)
		}
		m.Start()
		startWork(e, refs...)
		e.k.Run(sim.Time(15 * sim.Second))
		return m.Stats, len(e.rt.ActorsOn(0)), len(e.rt.ActorsOn(1))
	}
	clean, c0, c1 := run(false)
	dup, d0, d1 := run(true)
	if clean.ExecutedMigrations == 0 {
		t.Fatal("clean run executed no migrations; test is vacuous")
	}
	if dup.ExecutedMigrations != clean.ExecutedMigrations {
		t.Fatalf("duplication changed executed migrations: %d vs %d",
			dup.ExecutedMigrations, clean.ExecutedMigrations)
	}
	if d0 != c0 || d1 != c1 {
		t.Fatalf("duplication changed placement: (%d,%d) vs (%d,%d)", d0, d1, c0, c1)
	}
}

// Delayed messages that miss their period's deadline are simply lost for
// that period; elasticity still converges and no actor is lost.
func TestDelayedMessagesDoNotBreakPeriods(t *testing.T) {
	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	inj := chaos.NewInjector(11, e.k.Now)
	inj.SetAllFaults(chaos.Faults{DelayProb: 0.5, MaxDelay: 50 * sim.Millisecond})
	m.SetChaos(inj)
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(20 * sim.Second))

	if inj.Stats.TotalDelayed() == 0 {
		t.Fatal("injector delayed nothing; test is vacuous")
	}
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("elasticity stalled under delays")
	}
	if len(e.rt.ActorsOn(0))+len(e.rt.ActorsOn(1)) != 4 {
		t.Fatal("workers lost under delays")
	}
}

// A crashed LEM takes its server out of the control plane: no REPORTs, no
// admission answers, no actions — while its actors keep running. Recovery
// re-registers it.
func TestFailLEMRemovesServerFromControlPlane(t *testing.T) {
	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	if !m.FailLEM(1) {
		t.Fatal("FailLEM rejected")
	}
	startWork(e, refs...)
	e.k.Run(sim.Time(8 * sim.Second))
	// The only balance target's LEM is dead: nothing can be admitted there,
	// but the workers keep running on server 0.
	if m.Stats.ExecutedMigrations != 0 {
		t.Fatal("migrated onto a server whose LEM is dead")
	}
	if len(e.rt.ActorsOn(0)) != 4 {
		t.Fatal("actors stopped running under LEM failure")
	}

	if !m.RecoverLEM(1) {
		t.Fatal("RecoverLEM rejected")
	}
	e.k.Run(sim.Time(20 * sim.Second))
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("no migrations after LEM recovery")
	}
	if len(e.rt.ActorsOn(1)) == 0 {
		t.Fatal("load never balanced after LEM recovery")
	}
	_ = refs
}

// A crashed LEM's server drops out of the GEM's view: resource rules keep
// running on the two survivors, nothing moves onto the dead LEM's server and
// no worker is lost.
func TestKQuorumDiscountsFailedLEMs(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	m.Start()
	if !m.FailLEM(2) {
		t.Fatal("FailLEM rejected")
	}
	startWork(e, refs...)
	e.k.Run(sim.Time(15 * sim.Second))
	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("no migrations among the surviving LEMs")
	}
	if len(e.rt.ActorsOn(2)) != 0 {
		t.Fatal("migrated onto the server with the dead LEM")
	}
	if len(e.rt.ActorsOn(0))+len(e.rt.ActorsOn(1)) != 4 {
		t.Fatal("workers lost")
	}
}

// The nastiest timing for a machine crash is the exact instant a migration
// commits. Pass 1 traces a clean run to learn when the first commit lands
// and from which source; pass 2 replays the same seed with the source
// crashing at precisely that instant. The crash is scheduled up front, so it
// wins the same-instant (at, seq) tie against the commit callback: the
// migration must roll back, not commit, and no actor may be lost or stuck.
func TestCrashExactlyAtMigrationCommitTick(t *testing.T) {
	var commitAt sim.Time
	commitSrc := cluster.MachineID(-1)
	{
		e, refs, pol := hotServerEnv(t)
		m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
		ring := trace.NewRing(1 << 16)
		tr := trace.New(ring)
		tr.SetClock(e.k.Now)
		m.SetTracer(tr)
		m.Start()
		startWork(e, refs...)
		e.k.Run(sim.Time(20 * sim.Second))
		for _, r := range ring.Records() {
			if r.Kind == trace.KindCommit {
				commitAt, commitSrc = r.At, cluster.MachineID(r.Server)
				break
			}
		}
		if commitSrc < 0 {
			t.Fatal("clean run committed no migration; test is vacuous")
		}
	}

	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	ring := trace.NewRing(1 << 16)
	tr := trace.New(ring)
	tr.SetClock(e.k.Now)
	m.SetTracer(tr)
	e.k.At(commitAt, func() {
		if !e.c.Fail(commitSrc) {
			t.Errorf("crash of machine %d refused at t=%d", commitSrc, int64(commitAt))
			return
		}
		e.rt.RecoverMachine(commitSrc)
	})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(20 * sim.Second))

	sawAbort := false
	for _, r := range ring.Records() {
		if r.At != commitAt {
			continue
		}
		switch r.Kind {
		case trace.KindRollback:
			sawAbort = true
		case trace.KindCommit:
			t.Fatalf("migration committed at the crash instant t=%d", int64(commitAt))
		}
	}
	if !sawAbort {
		t.Fatal("no rollback at the crash instant; the crash missed the in-flight migration")
	}
	if n := e.rt.InFlightMigrations(); n != 0 {
		t.Fatalf("%d migrations stuck in flight after crash-at-commit", n)
	}
	for _, r := range refs {
		if !e.rt.Exists(r) {
			t.Fatal("worker lost to a crash-at-commit race")
		}
		srv := e.rt.ServerOf(r)
		if mach := e.c.Machine(srv); mach == nil || !mach.Up() {
			t.Fatalf("worker homed on down machine %d", srv)
		}
	}
}

// A machine that crashes and recovers entirely inside the warm-up window —
// before the very first elasticity period has ticked — must leave no scar:
// the first snapshot sees a healthy fleet and elasticity balances onto the
// recovered server exactly as in an undisturbed run.
func TestRecoveryBeforeFirstElasticityPeriod(t *testing.T) {
	e, refs, pol := hotServerEnv(t)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	e.k.At(sim.Time(200*sim.Millisecond), func() {
		if !e.c.Fail(1) {
			t.Error("crash of machine 1 refused")
			return
		}
		e.rt.RecoverMachine(1)
	})
	e.k.At(sim.Time(500*sim.Millisecond), func() {
		if !e.c.Repair(1) {
			t.Error("repair of machine 1 refused")
		}
	})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(15 * sim.Second))

	if m.Stats.ExecutedMigrations == 0 {
		t.Fatal("elasticity never ran after a pre-period crash/repair")
	}
	if on0, on1 := len(e.rt.ActorsOn(0)), len(e.rt.ActorsOn(1)); on0+on1 != 4 {
		t.Fatalf("workers lost across pre-period recovery: 0:%d 1:%d", on0, on1)
	}
	if len(e.rt.ActorsOn(1)) == 0 {
		t.Fatal("load never balanced onto the repaired server")
	}
}

func TestFailLEMBounds(t *testing.T) {
	e := newEnv(1, 2, 1)
	m := New(e.k, e.c, e.rt, e.prof, epl.MustParse(`true => pin(A(a));`), Config{Period: sim.Second})
	if m.FailLEM(99) {
		t.Fatal("FailLEM accepted an unknown machine")
	}
	if m.RecoverLEM(99) {
		t.Fatal("RecoverLEM accepted an unknown machine")
	}
	if m.RecoverLEM(0) {
		t.Fatal("RecoverLEM accepted a healthy LEM")
	}
	if !m.FailLEM(0) || !m.RecoverLEM(0) {
		t.Fatal("fail/recover round trip rejected")
	}
}
