package emr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/chaos"
	"plasma/internal/epl"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// The control plane recycles its message records: a record goes back on the
// free list only once every event scheduled on it has fired. A record
// released early is reused by a later exchange while a duplicate, a delayed
// copy or a timer of the old one is still queued, and that event then reads
// the new exchange's fields. TestRecycledRecordsUnderChaos runs a world whose
// faults make that happen all the time — a third of the messages
// duplicated, half delayed by up to 1.5 periods, a tenth dropped — for 30
// periods and compares the decision trace (JSONL) and the counters byte for byte
// with testdata/recycle_chaos.{trace,stats}, recorded from the control plane
// that built a fresh closure per message. UPDATE_GOLDEN=1 re-records them.
func TestRecycledRecordsUnderChaos(t *testing.T) {
	e := newEnv(3, 6, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);
server.cpu.perc > 50 => reserve(VIP(v), cpu);
VIP(v).call(Helper(h).work).count > 0 => colocate(v, h);`)
	var refs []actor.Ref
	for i := 0; i < 12; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(30), 0))
	}
	for i := 0; i < 2; i++ {
		h := e.rt.SpawnOn("Helper", worker(10), 1)
		vip := e.rt.SpawnOn("VIP", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(20 * sim.Millisecond)
			ctx.Send(h, "work", nil, 64)
			ctx.SendAfter(80*sim.Millisecond, ctx.Self(), "work", nil, 16)
		}), 0)
		refs = append(refs, vip)
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, NumGEMs: 2,
		MinResidence: sim.Millisecond, ReserveEvacuate: true})
	inj := chaos.NewInjector(17, e.k.Now)
	inj.SetAllFaults(chaos.Faults{DropProb: 0.1, DupProb: 0.3, DelayProb: 0.5, MaxDelay: 1500 * sim.Millisecond})
	m.SetChaos(inj)
	ring := trace.NewRing(1 << 18)
	tr := trace.New(ring)
	tr.SetClock(e.k.Now)
	m.SetTracer(tr)
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(30*sim.Second + 500*sim.Millisecond))

	if m.Stats.Ticks != 30 || inj.Stats.TotalDuplicated() == 0 || inj.Stats.TotalDelayed() == 0 ||
		m.Stats.ExecutedMigrations == 0 || m.Stats.QueryTimeouts == 0 || m.Stats.RetriedReports == 0 {
		t.Fatalf("the run exercises too little: %+v, chaos %+v", m.Stats, inj.Stats)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("the trace ring dropped %d records", ring.Dropped())
	}
	var got bytes.Buffer
	if err := trace.WriteJSONL(&got, ring.Records()); err != nil {
		t.Fatal(err)
	}
	stats := fmt.Sprintf("%+v\n", m.Stats)

	traceFile, statsFile := filepath.Join("testdata", "recycle_chaos.trace"), filepath.Join("testdata", "recycle_chaos.stats")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsFile, []byte(stats), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantStats, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if stats != string(wantStats) {
		t.Errorf("Stats differ from the recording:\n got %s want %s", stats, wantStats)
	}
	want, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("trace differs from the recording at line %d of %d:\n got %s\nwant %s", i+1, len(w), g[i], w[i])
			}
		}
		t.Fatalf("trace has %d lines, the recording %d", len(g), len(w))
	}
}

// A machine that crashed stays out of the control plane until it is back:
// its LEM proposes nothing. The crash does not mark the LEM failed, so the
// actions its last RREPLY delivered must not outlive the period they were
// planned for — they used to be re-read, and re-queried, every period.
func TestCrashedServerProposesNothing(t *testing.T) {
	e := newEnv(1, 3, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`)
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, e.rt.SpawnOn("Worker", worker(45), 0))
	}
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{Period: sim.Second, MinResidence: sim.Millisecond})
	ring := trace.NewRing(1 << 14)
	tr := trace.New(ring)
	tr.SetClock(e.k.Now)
	m.SetTracer(tr)
	crashAt := sim.Time(sim.Second + execDelay + 5*sim.Millisecond) // period 1 executed
	e.k.At(crashAt, func() {
		if !e.c.Fail(0) {
			t.Error("crash of machine 0 refused")
		}
	})
	m.Start()
	startWork(e, refs...)
	e.k.Run(sim.Time(6 * sim.Second))

	if m.Stats.Ticks < 5 {
		t.Fatalf("%d periods ran, want 5", m.Stats.Ticks)
	}
	queries := 0
	for _, r := range ring.Records() {
		if r.Kind != trace.KindQuery {
			continue
		}
		if r.At <= crashAt {
			queries++
			continue
		}
		if r.Server == 0 {
			t.Errorf("t = %d µs: the crashed server's LEM queried server %d for actor %d", int64(r.At), r.Target, r.Actor)
		}
	}
	if queries == 0 {
		t.Fatal("period 1 queried nothing before the crash; the test is vacuous")
	}
}
