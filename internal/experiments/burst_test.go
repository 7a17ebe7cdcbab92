package experiments

import (
	"bytes"
	"strings"
	"testing"

	"plasma/internal/chaos"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// The flash-crowd sweep must cover the full provisioning spectrum and show
// its effect: a warm pool (capacity back in milliseconds) sheds no more —
// and violates the SLO no longer — than VM provisioning (capacity back
// after the spike is over).
func TestBurstFlashSpectrumShape(t *testing.T) {
	r := BurstFlash(Config{Seed: 1})
	if len(r.Rows) != 3 {
		t.Fatalf("burst_flash has %d rows, want one per provisioning class (3)", len(r.Rows))
	}
	for _, pc := range []string{"warm", "container", "vm"} {
		if _, ok := r.Summary["slo_viol_s_"+pc]; !ok {
			t.Fatalf("missing SLO-violation summary for class %s", pc)
		}
		if r.Summary["invariant_violations_"+pc] != 0 {
			t.Errorf("class %s run ended with invariant violations", pc)
		}
	}
	if r.Summary["shed_vm"] == 0 {
		t.Error("VM-only provisioning shed nothing during the flash; spike too weak to test overload")
	}
	if r.Summary["scale_outs_warm"] == 0 {
		t.Error("warm-pool run never scaled out")
	}
	if r.Summary["shed_warm"] > r.Summary["shed_vm"] {
		t.Errorf("warm pool shed more than VM (%v > %v); spectrum has no effect",
			r.Summary["shed_warm"], r.Summary["shed_vm"])
	}
	if r.Summary["slo_viol_s_warm"] > r.Summary["slo_viol_s_vm"] {
		t.Errorf("warm pool violated longer than VM (%v > %v)",
			r.Summary["slo_viol_s_warm"], r.Summary["slo_viol_s_vm"])
	}
}

// The region-failover scenario must actually dump load: every region-A
// machine crashes, the survivors saturate (nonzero SLO violation), and the
// end state still satisfies the global invariants.
func TestBurstRegionFailoverDumpsLoad(t *testing.T) {
	r := BurstRegion(Config{Seed: 1})
	if r.Summary["mean_crashes"] != 4 {
		t.Fatalf("mean crashes = %v, want 4 (whole region A)", r.Summary["mean_crashes"])
	}
	if r.Summary["mean_slo_viol_s"] == 0 {
		t.Error("region failover caused no SLO violation; survivors were never stressed")
	}
	if r.Summary["invariant_violations"] != 0 {
		t.Error("invariant violations after failover/repair")
	}
}

// The chaos-composed burst (flash crowd during a GEM crash) must run in
// the quick sweep with the GEM actually down and the fleet still growing.
func TestBurstChaosGEMCrashDuringFlash(t *testing.T) {
	r := BurstChaos(Config{Seed: 1})
	if r.Summary["mean_ctl_fails"] == 0 {
		t.Fatal("GEM crash was never applied; composition is vacuous")
	}
	if r.Summary["mean_scale_outs"] == 0 {
		t.Error("no scale-out during the flash: surviving GEM's vote did not carry")
	}
	if r.Summary["invariant_violations"] != 0 {
		t.Error("invariant violations after the composed run")
	}
}

// Fixed seed, fixed scenario: the rendered result (every row, summary, and
// note) must be byte-identical across runs.
func TestBurstDeterministicSameSeed(t *testing.T) {
	a := BurstDiurnal(Config{Seed: 5}).Render()
	b := BurstDiurnal(Config{Seed: 5}).Render()
	if a != b {
		t.Fatalf("same-seed burst_diurnal renders differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// Satellite: chaos schedule composition. A GEM failure, a machine crash,
// and a machine recovery landing on the same tick must apply in schedule
// order, deterministically — and the full decision trace must be
// byte-identical across two runs at the same seed.
func TestBurstChaosSameTickCompositionDeterministic(t *testing.T) {
	tick := sim.Time(8 * sim.Second)
	events := []chaos.Event{
		{At: sim.Time(5 * sim.Second), Op: chaos.CrashMachine, Target: 2},
		// Same instant, three op families; apply order = schedule order.
		{At: tick, Op: chaos.FailGEM, Target: 0},
		{At: tick, Op: chaos.CrashMachine, Target: 1},
		{At: tick, Op: chaos.RepairMachine, Target: 2},
		{At: sim.Time(12 * sim.Second), Op: chaos.RecoverGEM, Target: 0},
	}
	run := func() ([]string, []byte) {
		ring := trace.NewRing(1 << 16)
		cfg := Config{Seed: 7, Trace: trace.New(ring)}
		burstTrial(cfg, 7, burstOpts{
			servers: 4, frontends: 8,
			policy:  `server.cpu.perc > 70 or server.cpu.perc < 10 => balance({Frontend}, cpu);`,
			emr:     emr.Config{Period: 2 * sim.Second, NumGEMs: 2, MinServers: 2},
			total:   16 * sim.Second,
			clients: 4, baseEvery: 50 * sim.Millisecond,
			mailboxCap: 32,
			events:     events, floor: 1,
		})
		if ring.Dropped() != 0 {
			t.Fatalf("trace ring overflowed (%d dropped); grow the test ring", ring.Dropped())
		}
		var applied []string
		for _, rec := range ring.Records() {
			if rec.Kind == trace.KindChaos {
				applied = append(applied, rec.Detail)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, ring.Records()); err != nil {
			t.Fatal(err)
		}
		return applied, buf.Bytes()
	}

	applied1, jsonl1 := run()
	applied2, jsonl2 := run()

	want := []string{"crash-machine 2", "fail-gem 0", "crash-machine 1", "repair-machine 2", "recover-gem 0"}
	if len(applied1) != len(want) {
		t.Fatalf("chaos trace has %d records, want %d: %v", len(applied1), len(want), applied1)
	}
	for i := range want {
		if applied1[i] != want[i] {
			t.Fatalf("same-tick apply order broken at %d: got %q, want %q (full: %v)",
				i, applied1[i], want[i], applied1)
		}
		if strings.HasSuffix(applied1[i], "skipped") {
			t.Fatalf("event %q was refused", applied1[i])
		}
	}
	for i := range applied2 {
		if applied2[i] != applied1[i] {
			t.Fatalf("apply order differs between same-seed runs at %d: %q vs %q",
				i, applied1[i], applied2[i])
		}
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Fatal("same-seed decision traces are not byte-identical")
	}
}

// The flash loop's variable-rate driver: outside the window the arrival
// multiplier is 1, inside it the spike factor.
func TestBurstFlashRateWindow(t *testing.T) {
	r := flashRate(sim.Time(10*sim.Second), sim.Time(20*sim.Second), 25)
	if got := r(sim.Time(5 * sim.Second)); got != 1 {
		t.Errorf("pre-window rate = %v, want 1", got)
	}
	if got := r(sim.Time(10 * sim.Second)); got != 25 {
		t.Errorf("window-start rate = %v, want 25", got)
	}
	if got := r(sim.Time(20 * sim.Second)); got != 1 {
		t.Errorf("window-end rate = %v, want 1 (half-open window)", got)
	}
}

// Spectrum helper sanity: the warm pool is the only finite class, and every
// class carries a nonzero failure probability so the retry path is live.
func TestBurstSpecSpectrum(t *testing.T) {
	for _, pc := range []cluster.ProvClass{cluster.WarmPool, cluster.Container, cluster.VM} {
		specs := burstSpec(pc)
		if len(specs) != 1 || specs[0].Class != pc {
			t.Fatalf("burstSpec(%v) = %+v", pc, specs)
		}
		if specs[0].FailProb <= 0 {
			t.Errorf("class %v has no failure probability; retry path untested", pc)
		}
		finite := specs[0].Capacity >= 0
		if finite != (pc == cluster.WarmPool) {
			t.Errorf("class %v finite=%v; only the warm pool should be finite", pc, finite)
		}
	}
}
