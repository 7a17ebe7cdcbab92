package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"plasma/internal/actor"
	"plasma/internal/cluster"
)

// testSeconds and testWorld shrink a pass to a hundredth of its size: a
// twentieth of the work on a fifth of the world.
const (
	testSeconds = 0.5
	testWorld   = 0.2
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, d := range append(append([]metric(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, wl := range workloads {
		name(wl.Name)
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	if len(endToEnd) != 9 || len(perLayer) != 63 || len(workloads) != 4 {
		t.Errorf("have %d end-to-end metrics, %d per-layer metrics and %d workloads; want 9, 63 and 4",
			len(endToEnd), len(perLayer), len(workloads))
	}
	largest := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = math.Max(largest, d.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must be declared first and carry the largest bound")
	}
	for _, l := range cpuLayers {
		if !seen[shareName(l)] {
			t.Errorf("cpu layer %q has no per-layer metric %q", l, shareName(l))
		}
	}
}

// TestManifestMatches holds BENCHMARK.json to the declarations it repeats.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the harness's is %d", m.RunSeconds, runSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d declared", len(m.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if m.Workloads[i].Name != wl.Name || m.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: manifest has %q: %q", i, m.Workloads[i].Name, m.Workloads[i].Why)
		}
	}
	same := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d declared", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: manifest has %+v, declared %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s: bound in the manifest does not match %v", d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd, true)
	same("per-layer", m.PerLayer, perLayer, false)
}

// TestEveryMetricEveryWorkload runs each workload untraced twice and traced
// once at a hundredth of its size: every declared metric must be there,
// the outputs must check, the digest must repeat, and tracing must not
// change what is simulated.
func TestEveryMetricEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			run := func(traced bool) *passResult {
				t.Helper()
				res, err := runPass(wl, 7, testSeconds, testWorld, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("traced=%v: output checks failed: %v", traced, res.Problems)
				}
				return res
			}
			first, again, traced := run(false), run(false), run(true)
			for _, d := range endToEnd {
				v, ok := first.Metrics[d.Name]
				// A world this small may never cross its SLO line; at full
				// size every workload does.
				if !ok || math.IsNaN(v) || v < 0 || (v == 0 && d.Name != "sim_slo_viol_s") {
					t.Errorf("%s = %v (present %v): every end-to-end metric must be a positive number", d.Name, v, ok)
				}
			}
			if first.Attempted < 1 || first.Failed != 0 {
				t.Errorf("%d ops attempted, %d failed", first.Attempted, first.Failed)
			}
			if first.Digest != again.Digest {
				t.Errorf("sim_digest does not repeat: %s then %s", first.Digest, again.Digest)
			}
			if first.Digest != traced.Digest {
				t.Errorf("tracing changed the simulation: sim_digest %s untraced, %s traced", first.Digest, traced.Digest)
			}
			var shares float64
			for _, d := range perLayer {
				v, ok := traced.Layer[d.Name]
				if !ok || math.IsNaN(v) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
				if strings.HasSuffix(d.Name, "cpu_share") {
					shares += v
				}
			}
			if math.Abs(shares-1) > 0.02 {
				t.Errorf("cpu shares sum to %v", shares)
			}
			if traced.Layer["sim.events"] <= 0 || traced.Layer["actor.msgs"] <= 0 || traced.Layer["emr.ticks"] <= 0 {
				t.Errorf("a traced pass must count events, messages and ticks: %v", traced.Layer)
			}
		})
	}
}

// TestStackAttribution holds the bucketing to a recorded fixture.
func TestStackAttribution(t *testing.T) {
	f, err := os.Open("testdata/stacks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var samples []stackSample
	want := map[string]int64{}
	var total int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		stack, layer, ok := strings.Cut(line, " => ")
		weightStr, frames, ok2 := strings.Cut(stack, " ")
		weight, err := strconv.ParseInt(weightStr, 10, 64)
		if !ok || !ok2 || err != nil {
			t.Fatalf("bad fixture line %q", line)
		}
		s := stackSample{Frames: strings.Split(frames, ";"), Weight: weight}
		if got := stackLayer(s.Frames); got != layer {
			t.Errorf("stack with leaf %s: attributed to %q, want %q", s.Frames[0], got, layer)
		}
		samples = append(samples, s)
		want[layer] += weight
		total += weight
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(samples)
	var sum float64
	for _, l := range cpuLayers {
		if got, w := shares[l], float64(want[l])/float64(total); math.Abs(got-w) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", l, got, w)
		}
		sum += shares[l]
		delete(want, l)
	}
	if len(want) != 0 {
		t.Errorf("fixture names layers the harness has no bucket for: %v", want)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

var spinSink uint64

// spinForProfile burns CPU under a name the profile must then show.
func spinForProfile(d time.Duration) {
	y := newYardstick()
	for t0 := time.Now(); time.Since(t0) < d; {
		spinSink += uint64(y.burst())
	}
}

// TestParseProfile reads back a real profile: the decoder must recover
// symbolized stacks, leaf first.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling is not available: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for i, fn := range s.Frames {
			if strings.HasSuffix(fn, ".spinForProfile") {
				found = true
				if i == len(s.Frames)-1 || s.Weight <= 0 {
					t.Errorf("spinForProfile sample has no caller below it or no weight: %+v", s)
				}
			}
		}
	}
	if !found {
		t.Errorf("no sample among %d shows spinForProfile", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "build", Layer: "harness", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "graph.PartitionMultilevel", Layer: "graph", StartNS: 10, EndNS: 70},
		{ID: 3, Parent: 1, Name: "emr.New", Layer: "emr", StartNS: 70, EndNS: 90},
		{ID: 4, Name: "Kernel.Run", Layer: "sim", StartNS: 100, EndNS: 400},
	}
	got := selfSeconds(spans)
	want := map[string]float64{"harness": 20e-9, "graph": 60e-9, "emr": 20e-9, "sim": 300e-9}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, med, q3)
	}
}

func TestAAVerdict(t *testing.T) {
	host := metric{Name: "run_wall_s", Bound: 0.10, Host: true}
	sim := metric{Name: "sim_op_p99_ms", Bound: 0.15}
	steady := []float64{10, 10.1, 9.9, 10.2, 10}
	noisy := []float64{10, 12, 8, 13, 9}
	for _, c := range []struct {
		d        metric
		v        []float64
		varySeed bool
		ok       bool
	}{
		{host, steady, false, true},
		{host, noisy, false, false},
		{host, noisy, true, false},
		{sim, []float64{5, 5, 5}, false, true},
		{sim, []float64{5, 5, 5.0000001}, false, false}, // one seed: must repeat exactly
		{sim, steady, true, true},                       // a seed per set: held to its bound
		{sim, noisy, true, false},
	} {
		if ok, why := aaVerdict(c.d, c.v, c.varySeed); ok != c.ok {
			t.Errorf("%s %v varySeed=%v: ok=%v (%s), want %v", c.d.Name, c.v, c.varySeed, ok, why, c.ok)
		}
	}
}

func TestSelfcheckOf(t *testing.T) {
	full := &passResult{Events: 1000, Metrics: map[string]float64{"run_wall_s": 10}}
	half := &passResult{Events: 510, Metrics: map[string]float64{"run_wall_s": 5.2}}
	traced := &passResult{Metrics: map[string]float64{"run_wall_s": 10.8},
		Layer: map[string]float64{"emr.cpu_share": 0.3, "profile.cpu_share": 0.1, "epl.cpu_share": 0.02}}
	for _, c := range selfcheckOf("fleet_control", full, half, traced) {
		if !c.OK {
			t.Errorf("%s: got %v, want %s", c.What, c.Got, c.Want)
		}
	}
	failed := 0
	half.Events = 900 // the metrics do not follow the work
	for _, c := range selfcheckOf("media_bell", full, half, traced) {
		if !c.OK {
			failed++
		}
	}
	if failed != 2 { // events ratio, and a control-plane share media_bell must not have
		t.Errorf("%d checks failed, want 2", failed)
	}
}

// A world whose workload ends inside a migration lets the transfer commit
// before the output checks look for stuck ones.
func TestRunDrainsOpenMigration(t *testing.T) {
	p := &pass{wl: workloadByName("pagerank_rebalance"), watch: &stopwatch{yard: newYardstick()}}
	w := p.newWorld(1, 2, cluster.M5Large)
	ref := w.rt.SpawnOn("Worker", actor.BehaviorFunc(func(*actor.Context, actor.Message) {}), 0)
	w.actors0 = w.rt.NumActors()
	w.drive = func() {
		w.rt.Migrate(ref, 1, nil)
		if w.rt.InFlightMigrations() != 1 {
			t.Fatalf("%d migrations in flight at the workload's end, want 1", w.rt.InFlightMigrations())
		}
	}
	w.run()
	if bad := w.problems(); len(bad) != 0 {
		t.Errorf("problems after the run: %v", bad)
	}
	if got := w.rt.ServerOf(ref); got != 1 {
		t.Errorf("actor is on machine %d, want 1", got)
	}
}
