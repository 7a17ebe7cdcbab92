package chaos

import (
	"reflect"
	"testing"

	"plasma/internal/sim"
	"plasma/internal/trace"
)

// traced returns an injector seeded with seed whose KindChaos records land
// in the returned ring, stamped by clock (nil leaves them at zero time).
func traced(seed int64, clock func() sim.Time) (*Injector, *trace.Ring) {
	ring := trace.NewRing(1024)
	tr := trace.New(ring)
	tr.SetClock(clock)
	in := NewInjector(seed, nil)
	in.SetTracer(tr)
	return in, ring
}

func TestInterceptDeterministic(t *testing.T) {
	run := func() ([]Decision, []trace.Record, Stats) {
		in, ring := traced(42, nil)
		in.SetAllFaults(Faults{DropProb: 0.2, DupProb: 0.2, DelayProb: 0.3, MaxDelay: sim.Millis(5)})
		var out []Decision
		for i := 0; i < 200; i++ {
			out = append(out, in.Intercept(MsgKind(i%int(numKinds)), LEM(0), GEM(1)))
		}
		return out, ring.Records(), in.Stats
	}
	d1, t1, s1 := run()
	d2, t2, s2 := run()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed produced different decisions")
	}
	if len(t1) == 0 || !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed produced different records (%d vs %d)", len(t1), len(t2))
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	if s1.TotalDropped() == 0 || s1.TotalDuplicated() == 0 || s1.TotalDelayed() == 0 {
		t.Fatalf("expected all fault families over 200 messages: %+v", s1)
	}
}

func TestInterceptSeedsDiffer(t *testing.T) {
	records := func(seed int64) []trace.Record {
		in, ring := traced(seed, nil)
		in.SetAllFaults(Faults{DropProb: 0.5})
		for i := 0; i < 50; i++ {
			in.Intercept(Report, LEM(0), GEM(1))
		}
		return ring.Records()
	}
	if reflect.DeepEqual(records(1), records(2)) {
		t.Fatal("different seeds produced identical fault traces")
	}
}

func TestZeroProbabilitiesDeliverEverything(t *testing.T) {
	in, ring := traced(7, nil)
	for i := 0; i < 100; i++ {
		if d := in.Intercept(Query, LEM(0), GEM(1)); d.Verdict != Deliver {
			t.Fatalf("fault injected with zero probabilities: %v", d.Verdict)
		}
	}
	if in.Stats.TotalIntercepted() != 100 {
		t.Fatalf("intercepted = %d, want 100", in.Stats.TotalIntercepted())
	}
	if recs := ring.Records(); len(recs) != 0 {
		t.Fatalf("clean run produced trace records: %+v", recs)
	}
}

// TestFaultDetails pins the bytes of a message fault's detail: each verdict
// and a delay in each of its three units. TestApplyDispatchesAndTracesRefusals
// pins a scheduled op's, applied and refused.
func TestFaultDetails(t *testing.T) {
	cases := []struct {
		kind     MsgKind
		from, to Endpoint
		d        Decision
		want     string
	}{
		{Report, LEM(3), GEM(0), Decision{Verdict: Drop}, "REPORT lem3->gem0 drop"},
		{RReply, GEM(1), LEM(12), Decision{Verdict: Duplicate}, "RREPLY gem1->lem12 dup"},
		{Query, LEM(1), LEM(4), Decision{Verdict: Delay, Delay: 250}, "QUERY lem1->lem4 delay 250µs"},
		{QReply, LEM(4), LEM(1), Decision{Verdict: Delay, Delay: 12_345}, "QREPLY lem4->lem1 delay 12.345ms"},
		{Report, LEM(0), GEM(2), Decision{Verdict: Delay, Delay: 1_500_000}, "REPORT lem0->gem2 delay 1.500s"},
	}
	buf := []byte("stale")
	for _, c := range cases {
		buf = appendFault(buf[:0], c.kind, c.from, c.to, c.d)
		if string(buf) != c.want {
			t.Errorf("fault detail = %q, want %q", buf, c.want)
		}
	}
	// Intercept traces the same details.
	in, ring := traced(1, nil)
	in.SetFaults(Report, Faults{DropProb: 1})
	in.SetFaults(RReply, Faults{DupProb: 1})
	in.Intercept(Report, LEM(3), GEM(0))
	in.Intercept(RReply, GEM(1), LEM(12))
	recs := ring.Records()
	if len(recs) != 2 || recs[0].Detail != cases[0].want || recs[1].Detail != cases[1].want {
		t.Fatalf("traced details = %+v", recs)
	}
}

// With no tracer installed an injected fault costs no allocation: its
// detail is formatted only for a tracer, as Tracer.Enabled asks.
func TestUntracedFaultsDoNotAllocate(t *testing.T) {
	in := NewInjector(7, nil)
	in.SetAllFaults(Faults{DropProb: 1})
	if a := testing.AllocsPerRun(100, func() { in.Intercept(Report, LEM(0), GEM(1)) }); a != 0 {
		t.Fatalf("untraced Intercept allocates %v times per call, want 0", a)
	}
}

func TestDropProbOneDropsEverything(t *testing.T) {
	in := NewInjector(7, nil)
	in.SetFaults(Report, Faults{DropProb: 1})
	for i := 0; i < 20; i++ {
		if d := in.Intercept(Report, LEM(0), GEM(1)); d.Verdict != Drop {
			t.Fatalf("message survived DropProb=1: %v", d.Verdict)
		}
	}
	// Other kinds keep their (empty) plan.
	if d := in.Intercept(RReply, LEM(0), GEM(1)); d.Verdict != Deliver {
		t.Fatalf("fault plan leaked across kinds: %v", d.Verdict)
	}
	if got := in.Stats.Dropped[Report]; got != 20 {
		t.Fatalf("dropped[Report] = %d, want 20", got)
	}
}

func TestDelayBounded(t *testing.T) {
	in := NewInjector(11, nil)
	max := sim.Millis(3)
	in.SetFaults(QReply, Faults{DelayProb: 1, MaxDelay: max})
	for i := 0; i < 100; i++ {
		d := in.Intercept(QReply, LEM(0), GEM(1))
		if d.Verdict != Delay {
			t.Fatalf("verdict = %v, want Delay", d.Verdict)
		}
		if d.Delay <= 0 || d.Delay > max {
			t.Fatalf("delay %v outside (0, %v]", d.Delay, max)
		}
	}
}

func TestDelayProbWithoutMaxDelayDelivers(t *testing.T) {
	in := NewInjector(11, nil)
	in.SetFaults(Query, Faults{DelayProb: 1}) // MaxDelay 0: delay disabled
	if d := in.Intercept(Query, LEM(0), GEM(1)); d.Verdict != Deliver {
		t.Fatalf("verdict = %v, want Deliver when MaxDelay is zero", d.Verdict)
	}
}

// Changing one kind's probabilities must not reshuffle decisions for later
// messages (each Intercept consumes a fixed number of variates).
func TestStreamPositionStableAcrossPlanChanges(t *testing.T) {
	verdicts := func(report Faults) []Verdict {
		in := NewInjector(5, nil)
		in.SetFaults(Report, report)
		in.SetFaults(Query, Faults{DropProb: 0.4})
		var out []Verdict
		for i := 0; i < 100; i++ {
			in.Intercept(Report, LEM(0), GEM(1)) // consumes the stream either way
			out = append(out, in.Intercept(Query, LEM(0), GEM(1)).Verdict)
		}
		return out
	}
	base := verdicts(Faults{})
	faulty := verdicts(Faults{DropProb: 0.9})
	if !reflect.DeepEqual(base, faulty) {
		t.Fatal("changing Report's plan reshuffled Query decisions")
	}
}

func TestGenerateDeterministicAndPaired(t *testing.T) {
	opts := ScheduleOpts{
		Horizon:  sim.Time(60 * sim.Second),
		Machines: []int{0, 1, 2, 3},
		GEMs:     2,
		LEMs:     []int{0, 1, 2, 3},
		Crashes:  3, GEMFails: 2, LEMFails: 2,
	}
	gen := func() []Event { return NewInjector(9, nil).Generate(opts) }
	ev1, ev2 := gen(), gen()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("same seed generated different schedules")
	}
	if want := 2 * (3 + 2 + 2); len(ev1) != want {
		t.Fatalf("len(events) = %d, want %d", len(ev1), want)
	}
	// Sorted by time, and every fault has a later matching recovery.
	recovery := map[Op]Op{CrashMachine: RepairMachine, FailGEM: RecoverGEM, FailLEM: RecoverLEM}
	for i, ev := range ev1 {
		if i > 0 && ev.At < ev1[i-1].At {
			t.Fatal("schedule not sorted by time")
		}
		rec, isFault := recovery[ev.Op]
		if !isFault {
			continue
		}
		found := false
		for _, other := range ev1 {
			if other.Op == rec && other.Target == ev.Target && other.At > ev.At {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fault %v %d has no later recovery", ev.Op, ev.Target)
		}
	}
}

// Two events scheduled for the same instant must dispatch in their slice
// order (Apply's sort is stable): a crash and its repair colliding on one
// tick is crash-then-repair, never the reverse.
func TestApplySameInstantEventsKeepScheduleOrder(t *testing.T) {
	k := sim.New(1)
	in := NewInjector(1, k.Now)
	env := &fakeEnv{}
	at := sim.Time(sim.Second)
	in.Apply(k, env, []Event{
		{At: at, Op: CrashMachine, Target: 0},
		{At: at, Op: RepairMachine, Target: 0},
		{At: at, Op: FailLEM, Target: 1},
	})
	k.Run(sim.Time(2 * sim.Second))
	want := []string{"crash", "repair", "faillem"}
	if !reflect.DeepEqual(env.log, want) {
		t.Fatalf("same-instant dispatch order = %v, want %v", env.log, want)
	}
}

// A degenerate one-tick horizon crams every fault onto t=0; recoveries must
// still land strictly later (outage is never zero), or a fault and its own
// recovery would race on the same instant.
func TestGenerateTinyHorizonOrdersRecoveryAfterFault(t *testing.T) {
	in := NewInjector(13, nil)
	events := in.Generate(ScheduleOpts{
		Horizon:  1,
		Machines: []int{0, 1},
		GEMs:     1, LEMs: []int{0, 1},
		Crashes: 2, GEMFails: 1, LEMFails: 2,
	})
	recovery := map[Op]bool{RepairMachine: true, RecoverGEM: true, RecoverLEM: true}
	for _, ev := range events {
		if recovery[ev.Op] {
			if ev.At == 0 {
				t.Fatalf("recovery %v %d scheduled at t=0, same instant as its fault", ev.Op, ev.Target)
			}
		} else if ev.At != 0 {
			t.Fatalf("fault %v %d escaped a one-tick horizon: t=%d", ev.Op, ev.Target, int64(ev.At))
		}
	}
}

type fakeEnv struct{ log []string }

func (e *fakeEnv) CrashMachine(id int) bool  { e.log = append(e.log, "crash"); return true }
func (e *fakeEnv) RepairMachine(id int) bool { e.log = append(e.log, "repair"); return true }
func (e *fakeEnv) FailGEM(id int) bool       { e.log = append(e.log, "failgem"); return id == 0 }
func (e *fakeEnv) RecoverGEM(id int) bool    { e.log = append(e.log, "recgem"); return true }
func (e *fakeEnv) FailLEM(srv int) bool      { e.log = append(e.log, "faillem"); return true }
func (e *fakeEnv) RecoverLEM(srv int) bool   { e.log = append(e.log, "reclem"); return true }

func TestApplyDispatchesAndTracesRefusals(t *testing.T) {
	k := sim.New(1)
	in, ring := traced(1, k.Now)
	env := &fakeEnv{}
	in.Apply(k, env, []Event{
		{At: sim.Time(2 * sim.Second), Op: FailGEM, Target: 1}, // refused by fakeEnv
		{At: sim.Time(sim.Second), Op: CrashMachine, Target: 0},
		{At: sim.Time(3 * sim.Second), Op: RepairMachine, Target: 0},
	})
	k.Run(sim.Time(5 * sim.Second))
	want := []string{"crash", "failgem", "repair"}
	if !reflect.DeepEqual(env.log, want) {
		t.Fatalf("dispatch order = %v, want %v", env.log, want)
	}
	recs := ring.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %+v, want 3", recs)
	}
	if r := recs[1]; r.Kind != trace.KindChaos || r.At != sim.Time(2*sim.Second) || r.Detail != "fail-gem 1 skipped" {
		t.Fatalf("refusal not traced as skipped at 2s: %+v", r)
	}
	if recs[0].Detail != "crash-machine 0" || recs[2].Detail != "repair-machine 0" {
		t.Fatalf("applied ops traced as %q and %q", recs[0].Detail, recs[2].Detail)
	}
}
