// Command plasma-bench runs the full evaluation sweep (every table and
// figure of §5) and reports it in two forms:
//
// Report mode (default) emits an EXPERIMENTS.md-style markdown report with
// the paper's claims next to the measured results:
//
//	plasma-bench [-full] [-seed N] > report.md
//
// Bench mode (-json and/or -compare) measures the sweep instead: wall time,
// allocations, simulated-event throughput, and peak event-queue depth per
// experiment id, written as a BENCH_<date>.json perf baseline. -compare
// checks the fresh measurement against a previous baseline and exits
// non-zero on what this VM can measure reliably: a baseline id no longer
// run, fixed-seed drift in events fired or a summary value, or allocs/op
// growth past allocTolerance. Wall time is printed, not gated — host-time
// claims belong to benchmark/, which corrects for the VM's speed drift:
//
//	plasma-bench -json                      # write BENCH_<date>.json
//	plasma-bench -json -o BENCH_ci.json     # explicit output path
//	plasma-bench -compare BENCH_base.json   # measure, diff, gate
//	plasma-bench -json -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The JSON schema is documented in EXPERIMENTS.md ("Perf baselines").
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"plasma/internal/emr"
	"plasma/internal/experiments"
)

// benchSchema identifies the BENCH_*.json layout; bump on breaking change.
const benchSchema = "plasma-bench/v1"

// BenchExperiment is one experiment's measurement in a BENCH_*.json file.
type BenchExperiment struct {
	ID    string `json:"id"`
	Iters int    `json:"iters"`
	// NsPerOp is the minimum wall time across iterations for one full run
	// of the experiment.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count of the last iteration.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Events is the number of simulation-kernel events one run fires.
	Events uint64 `json:"events"`
	// EventsPerSec is Events divided by the best wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakQueue is the deepest event queue any kernel in the run reached.
	PeakQueue int `json:"peak_queue"`
	// Summary carries the experiment's finite summary values so -compare
	// can flag determinism drift at fixed seed, not just slowdowns.
	Summary map[string]float64 `json:"summary,omitempty"`
}

// BenchFile is the on-disk perf baseline.
type BenchFile struct {
	Schema      string            `json:"schema"`
	Date        string            `json:"date"`
	Mode        string            `json:"mode"` // "quick" or "full"
	Seed        int64             `json:"seed"`
	GoVersion   string            `json:"go"`
	Experiments []BenchExperiment `json:"experiments"`
}

func main() {
	full := flag.Bool("full", false, "run paper-scale workloads (slower)")
	seed := flag.Int64("seed", 1, "simulation seed")
	jsonOut := flag.Bool("json", false, "benchmark the sweep and write a BENCH_<date>.json baseline")
	outPath := flag.String("o", "", "output path for -json (default BENCH_<date>.json)")
	comparePath := flag.String("compare", "", "benchmark the sweep and diff against this baseline; exit 1 on regression")
	iters := flag.Int("iters", 3, "iterations per experiment in bench mode (min wall time wins)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the bench sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the bench sweep to this file")
	flag.Parse()

	cfg := experiments.Config{Full: *full, Seed: *seed}
	if *jsonOut || *comparePath != "" {
		os.Exit(benchMain(cfg, *iters, *outPath, *comparePath, *cpuProfile, *memProfile))
	}
	reportMain(cfg)
}

// reportMain is the original markdown report mode, byte-for-byte stable
// per (mode, seed).
func reportMain(cfg experiments.Config) {
	fmt.Println("# PLASMA evaluation sweep")
	fmt.Println()
	mode := "quick"
	if cfg.Full {
		mode = "full (paper-scale)"
	}
	fmt.Printf("Mode: %s, seed %d. Virtual-time simulation; compare shapes, not absolute numbers.\n\n", mode, cfg.Seed)

	for _, id := range experiments.IDs() {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("## %s — %s\n\n```\n%s```\n\n", res.ID, res.Title, res.Render())
		if len(res.Series) > 0 {
			names := make([]string, 0, len(res.Series))
			for n := range res.Series {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Printf("Series available: %v\n\n", names)
		}
	}
}

func benchMain(cfg experiments.Config, iters int, outPath, comparePath, cpuProfile, memProfile string) int {
	if iters < 1 {
		iters = 1
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	bf := measureSweep(cfg, iters)
	printBenchTable(os.Stdout, bf)

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Close()
	}

	if outPath == "" {
		outPath = "BENCH_" + bf.Date + ".json"
	}
	exit := 0
	if comparePath != "" {
		old, err := readBenchFile(comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		regressions, notes := compareBench(old, bf)
		for _, n := range notes {
			fmt.Printf("note: %s\n", n)
		}
		for _, r := range regressions {
			fmt.Printf("REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			// Every finding was already printed above; the consolidated line
			// names each offending experiment once, so a CI log scan (or a
			// human skimming the tail) sees the full blast radius without
			// counting REGRESSION lines.
			fmt.Printf("%d regression(s) vs %s; experiments: %s\n",
				len(regressions), comparePath, strings.Join(regressedIDs(regressions), " "))
			exit = 1
		} else {
			fmt.Printf("no regressions vs %s\n", comparePath)
		}
	}
	if flagPassed("json") {
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	return exit
}

func flagPassed(name string) bool {
	found := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

// measureSweep benchmarks every registered experiment. Wall time is the
// minimum across iterations (the least-noisy estimator for a deterministic
// workload); allocation counts come from the final iteration.
func measureSweep(cfg experiments.Config, iters int) BenchFile {
	mode := "quick"
	if cfg.Full {
		mode = "full"
	}
	bf := BenchFile{
		Schema:    benchSchema,
		Date:      time.Now().Format("2006-01-02"),
		Mode:      mode,
		Seed:      cfg.Seed,
		GoVersion: runtime.Version(),
	}
	for _, id := range experiments.IDs() {
		be, err := benchOne(id, cfg, iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bf.Experiments = append(bf.Experiments, be)
	}
	bf.Experiments = append(bf.Experiments, benchDecision(cfg, iters))
	return bf
}

// benchDecision measures the planner_decision_time entry: one GEM decision
// round over a synthetic dense snapshot — a million actors on a
// thousand servers in full mode, 64k on 256 in quick mode. The snapshot is
// built outside the timed region (emr.NewDecisionBench), so ns/op is the
// decision round alone, the part that must stay off the migration critical
// path. Events counts the snapshot rows one round scans, making events/sec
// the planner's decision throughput in actors/sec; the fixed synthetic fleet
// makes the round's action count a pure function of the sizes, so the
// Summary values feed -compare's determinism gate like any experiment's.
func benchDecision(cfg experiments.Config, iters int) BenchExperiment {
	actors, servers := 65536, 256
	if cfg.Full {
		actors, servers = 1_000_000, 1000
	}
	db := emr.NewDecisionBench(actors, servers)
	be := BenchExperiment{ID: "planner_decision_time", Iters: iters, NsPerOp: math.MaxInt64}
	// One untimed round first: it sizes the planner's reused scratch, which a
	// steady-state period never pays for and -iters 1 would otherwise count.
	actions := db.Run("")
	for i := 0; i < iters; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		actions = db.Run("")
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if ns := elapsed.Nanoseconds(); ns < be.NsPerOp {
			be.NsPerOp = ns
		}
		be.AllocsPerOp = int64(after.Mallocs - before.Mallocs)
	}
	be.Events = uint64(actors)
	if be.NsPerOp > 0 {
		be.EventsPerSec = float64(be.Events) / (float64(be.NsPerOp) / 1e9)
	}
	be.Summary = map[string]float64{
		"actors":  float64(actors),
		"servers": float64(servers),
		"actions": float64(actions),
	}
	return be
}

func benchOne(id string, cfg experiments.Config, iters int) (BenchExperiment, error) {
	be := BenchExperiment{ID: id, Iters: iters, NsPerOp: math.MaxInt64}
	for i := 0; i < iters; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return be, err
		}
		if ns := elapsed.Nanoseconds(); ns < be.NsPerOp {
			be.NsPerOp = ns
		}
		be.AllocsPerOp = int64(after.Mallocs - before.Mallocs)
		be.Events = res.EventsFired
		be.PeakQueue = res.PeakQueue
		if i == iters-1 {
			be.Summary = finiteSummary(res.Summary)
		}
	}
	if be.NsPerOp > 0 {
		be.EventsPerSec = float64(be.Events) / (float64(be.NsPerOp) / 1e9)
	}
	return be, nil
}

// finiteSummary drops non-finite values: NaN/Inf are not representable in
// JSON, and a conditional summary key may legitimately be absent.
func finiteSummary(in map[string]float64) map[string]float64 {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]float64, len(in))
	for k, v := range in {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out[k] = v
	}
	return out
}

func printBenchTable(w *os.File, bf BenchFile) {
	fmt.Fprintf(w, "plasma-bench %s mode, seed %d, %s\n", bf.Mode, bf.Seed, bf.GoVersion)
	fmt.Fprintf(w, "%-8s  %14s  %14s  %12s  %14s  %10s\n", "id", "ns/op", "allocs/op", "events", "events/sec", "peak queue")
	for _, e := range bf.Experiments {
		fmt.Fprintf(w, "%-8s  %14d  %14d  %12d  %14.0f  %10d\n",
			e.ID, e.NsPerOp, e.AllocsPerOp, e.Events, e.EventsPerSec, e.PeakQueue)
	}
}

func readBenchFile(path string) (BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchFile{}, fmt.Errorf("plasma-bench: reading baseline: %w", err)
	}
	bf, err := parseBenchFile(data)
	if err != nil {
		return bf, fmt.Errorf("plasma-bench: bad baseline %s: %w", path, err)
	}
	return bf, nil
}

// parseBenchFile decodes a baseline and refuses one the gate cannot trust:
// a foreign schema, no experiments (every comparison would pass while
// checking nothing), or an empty or repeated id (compareBench keys the
// fresh run by id, so a repeated one is held to the wrong row).
func parseBenchFile(data []byte) (BenchFile, error) {
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, err
	}
	if bf.Schema != benchSchema {
		return bf, fmt.Errorf("schema %q, want %q", bf.Schema, benchSchema)
	}
	if len(bf.Experiments) == 0 {
		return bf, errors.New("no experiments to compare against")
	}
	seen := make(map[string]bool, len(bf.Experiments))
	for i, e := range bf.Experiments {
		if e.ID == "" {
			return bf, fmt.Errorf("experiment %d has an empty id", i)
		}
		if seen[e.ID] {
			return bf, fmt.Errorf("id %q listed twice", e.ID)
		}
		seen[e.ID] = true
	}
	return bf, nil
}

// allocTolerance is the allocs/op growth -compare allows. Allocation counts
// barely jitter, and a real hot-path regression (per-event boxing back on
// the message path) multiplies them far past this.
const allocTolerance = 0.60

// compareBench diffs a fresh measurement against a baseline. A regression
// is a baseline id no longer measured, allocs/op growth past
// allocTolerance, or — when mode and seed match — any summary or
// event-count drift at all, which means determinism broke (same seed must
// reproduce the same run). ns/op is not compared.
func compareBench(old, fresh BenchFile) (regressions, notes []string) {
	if old.Mode != fresh.Mode {
		notes = append(notes, fmt.Sprintf("baseline mode %q differs from measured mode %q; comparison skipped", old.Mode, fresh.Mode))
		return nil, notes
	}
	sameRun := old.Seed == fresh.Seed
	freshByID := make(map[string]BenchExperiment, len(fresh.Experiments))
	for _, e := range fresh.Experiments {
		freshByID[e.ID] = e
	}
	for _, o := range old.Experiments {
		n, ok := freshByID[o.ID]
		if !ok {
			// A baseline id the sweep no longer measures is silent coverage
			// loss — the gate would pass while checking less. Fail it.
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline but not measured (experiment removed or renamed?)", o.ID))
			continue
		}
		if o.AllocsPerOp > 0 && float64(n.AllocsPerOp) > float64(o.AllocsPerOp)*(1+allocTolerance) {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %d -> %d (%+.1f%%)",
				o.ID, o.AllocsPerOp, n.AllocsPerOp, pctChange(float64(o.AllocsPerOp), float64(n.AllocsPerOp))))
		}
		if sameRun {
			if o.Events != n.Events {
				regressions = append(regressions, fmt.Sprintf("%s: determinism drift: events fired %d -> %d at fixed seed",
					o.ID, o.Events, n.Events))
			}
			keys := make([]string, 0, len(o.Summary))
			for k := range o.Summary {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ov := o.Summary[k]
				nv, ok := n.Summary[k]
				if !ok {
					regressions = append(regressions, fmt.Sprintf("%s: determinism drift: summary %q missing at fixed seed", o.ID, k))
					continue
				}
				if nv != ov {
					regressions = append(regressions, fmt.Sprintf("%s: determinism drift: summary %q %v -> %v at fixed seed", o.ID, k, ov, nv))
				}
			}
		}
	}
	for _, n := range fresh.Experiments {
		found := false
		for _, o := range old.Experiments {
			if o.ID == n.ID {
				found = true
				break
			}
		}
		if !found {
			notes = append(notes, fmt.Sprintf("%s: new experiment, no baseline", n.ID))
		}
	}
	return regressions, notes
}

func pctChange(old, new float64) float64 { return (new - old) / old * 100 }

// regressedIDs extracts the sorted, deduplicated experiment ids from
// compareBench's regression messages (each begins "<id>: ...").
func regressedIDs(regressions []string) []string {
	seen := map[string]bool{}
	var ids []string
	for _, r := range regressions {
		id, _, ok := strings.Cut(r, ":")
		if !ok || id == "" {
			id = r
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
