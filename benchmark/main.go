// Command benchmark is the repository's benchmark: four long workloads,
// nine end-to-end metrics, and per-layer metrics measured from outside the
// layers. README.md in this directory describes what it measures and why.
//
//	bash benchmark/run.sh --workload media_bell --seed 1 --seconds 10 --trace 0
//
// builds it and runs one workload; the last line of standard output is the
// result as one JSON object.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds   = flag.Float64("seconds", runSeconds, "how long the run phase is sized to measure on the reference machine; scales the fixed work")
		traceMode = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics of an untraced one")
		traced    = flag.Bool("traced", false, "same as -trace 1")
		outDir    = flag.String("out", "benchmark/out", "directory the traced run's spans are written to")
		selfcheck = flag.Bool("selfcheck", false, "check that every workload loads the layer it was chosen for and that the metrics follow the work")
		aa        = flag.Int("aa", 0, "run this many full sets of all workloads and compare them with each other")
		varySeed  = flag.Bool("vary-seed", false, "with -aa: give each set its own seed, as the driver does")
		child     = flag.Bool("child", false, "internal: run one pass in this process and print its result")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *traced {
		*traceMode = 1
	}

	switch {
	case *child:
		wl := mustWorkload(*name)
		res, err := runPass(wl, *seed, *seconds, 1, *traceMode == 1, *outDir)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *outDir))
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *varySeed, *outDir))
	default:
		if *name == "" {
			fatalf("missing -workload (one of %s)", strings.Join(workloadNames(), ", "))
		}
		os.Exit(runOne(mustWorkload(*name), *seed, *seconds, *traceMode == 1, *outDir))
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.Name)
	}
	return names
}

func mustWorkload(name string) *spec {
	wl := workloadByName(name)
	if wl == nil {
		fatalf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	return wl
}

// spawn runs one pass in a fresh child process, so that every pass starts
// from the same heap and its peak RSS is its own. The simulator is
// single-threaded; GOMAXPROCS of 2 leaves the collector a core, and is
// never more than the machine has.
func spawn(wl *spec, seed int64, seconds float64, traced bool, outDir string) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", wl.Name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-out", outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", wl.Name, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s pass: reading its result: %w", wl.Name, err)
	}
	return &res, nil
}

// digestOf folds the sub-seeds' digests and the four pooled simulated
// statistics into the pass's sim_digest.
func digestOf(subs []string, m map[string]float64) string {
	var sb strings.Builder
	for _, d := range subs {
		sb.WriteString(d)
		sb.WriteByte(' ')
	}
	for _, name := range []string{"sim_op_p50_ms", "sim_op_p99_ms", "sim_slo_viol_s", "sim_server_s"} {
		sb.WriteString(strconv.FormatFloat(m[name], 'g', -1, 64))
		sb.WriteByte(' ')
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))[:16]
}

// runOne runs a workload the way the driver asks for it and prints the
// result; the last line is the contract's JSON object.
func runOne(wl *spec, seed int64, seconds float64, traced bool, outDir string) int {
	res, err := spawn(wl, seed, seconds, false, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs, values := endToEnd, res.Metrics
	if traced {
		// End-to-end metrics always come from the untraced pass; a second,
		// traced pass of the same work gives the per-layer ones, and the
		// difference between the two run phases is what tracing costs.
		tr, err := spawn(wl, seed, seconds, true, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		tr.Layer["spans.overhead_pct"] = 100 * (tr.Metrics["run_wall_s"] - res.Metrics["run_wall_s"]) / res.Metrics["run_wall_s"]
		if tr.Digest != res.Digest {
			tr.Problems = append(tr.Problems, fmt.Sprintf("traced pass simulated something else: sim_digest %s, untraced %s", tr.Digest, res.Digest))
			tr.Correct = false
		}
		tr.Correct = tr.Correct && res.Correct
		tr.Problems = append(res.Problems, tr.Problems...)
		res, defs, values = tr, perLayer, tr.Layer
	}
	printResult(res, defs, values)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes the header, every metric by name and unit, and the
// contract's last line.
func printResult(res *passResult, defs []metric, values map[string]float64) {
	hdr, _ := json.Marshal(res.Header) // a struct of plain fields: cannot fail
	fmt.Printf("header %s\n", hdr)
	fmt.Printf("ops_attempted %d\nops_failed %d\nop_samples %d\nsim_events %d\nsim_digest %s\n",
		res.Attempted, res.Failed, res.Samples, res.Events, res.Digest)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
		out[d.Name] = value{values[d.Name], d.Unit}
	}
	if res.SpanSelf != nil {
		for _, l := range append([]string{"metrics"}, cpuLayers...) {
			if s, ok := res.SpanSelf[l]; ok {
				fmt.Printf("span_self_s.%-20s %14.6g s\n", l, s)
			}
		}
	}
	for _, bad := range res.Problems {
		fmt.Printf("problem: %s\n", bad)
	}
	last, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	fmt.Printf("%s\n", last)
}
