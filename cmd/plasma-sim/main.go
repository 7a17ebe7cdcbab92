// Command plasma-sim runs PLASMA's evaluation experiments by id and prints
// their tables and summaries.
//
// Usage:
//
//	plasma-sim [-full] [-seed N] [-trace out.jsonl [-trace-cap N]] [experiment ...]
//
// With no arguments, all experiments run in registry order. With -trace,
// every elasticity decision (rule evaluations, migrations, provisioning,
// chaos injections) is recorded and written to the given JSONL file; inspect
// it with cmd/plasma-trace (summarize/filter/diff) or convert it with
// `plasma-trace chrome` for Perfetto. Traces at a fixed seed are
// byte-identical across runs. A run whose trace ring overflowed (-trace-cap)
// still writes the file but exits 1: the trace's head is missing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"plasma/internal/experiments"
	"plasma/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("plasma-sim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	full := fl.Bool("full", false, "run paper-scale workloads (slower)")
	seed := fl.Int64("seed", 1, "simulation seed")
	traceOut := fl.String("trace", "", "write a decision trace (JSONL) to this file")
	traceCap := fl.Int("trace-cap", 1<<20, "max records kept in the trace ring (oldest dropped)")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	ids := fl.Args()
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
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout, res.Render())
	}
	if ring != nil {
		if err := writeTrace(*traceOut, ring); err != nil {
			fmt.Fprintln(stderr, "plasma-sim:", err)
			return 1
		}
		// The file is written and inspectable, but its head is missing.
		if d := ring.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "plasma-sim: trace ring dropped %d oldest records (raise -trace-cap)\n", d)
			return 1
		}
	}
	return 0
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
