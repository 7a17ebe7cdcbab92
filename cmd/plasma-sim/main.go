// Command plasma-sim runs PLASMA's evaluation experiments by id and prints
// their tables and summaries.
//
// Usage:
//
//	plasma-sim [-full] [-seed N] [-trace out.jsonl] [experiment ...]
//
// With no arguments, all experiments run in registry order. With -trace,
// every elasticity decision (rule evaluations, migrations, provisioning,
// chaos injections) is recorded and written to the given JSONL file; inspect
// it with cmd/plasma-trace (summarize/filter/diff) or convert it with
// `plasma-trace chrome` for Perfetto. Traces at a fixed seed are
// byte-identical across runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"plasma/internal/experiments"
	"plasma/internal/trace"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale workloads (slower)")
	seed := flag.Int64("seed", 1, "simulation seed")
	traceOut := flag.String("trace", "", "write a decision trace (JSONL) to this file")
	traceCap := flag.Int("trace-cap", 1<<20, "max records kept in the trace ring (oldest dropped)")
	flag.Parse()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	cfg := experiments.Config{Full: *full, Seed: *seed}
	var ring *trace.Ring
	if *traceOut != "" {
		ring = trace.NewRing(*traceCap)
		cfg.Trace = trace.New(ring)
	}
	for _, id := range ids {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(res.Render())
	}
	if ring != nil {
		if err := writeTrace(*traceOut, ring); err != nil {
			fmt.Fprintln(os.Stderr, "plasma-sim:", err)
			os.Exit(1)
		}
		if d := ring.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "plasma-sim: trace ring dropped %d oldest records (raise -trace-cap)\n", d)
		}
	}
}

func writeTrace(path string, ring *trace.Ring) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(fh, ring.Records()); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
