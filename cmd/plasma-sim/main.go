// Command plasma-sim runs PLASMA's evaluation experiments by id and prints
// their tables and summaries.
//
// Usage:
//
//	plasma-sim [-full] [-seed N] [-trace out.jsonl] [experiment ...]
//
// With no arguments, all experiments run in table order. Each report ends
// with its claim's clauses, one "clause <name> = <value> <op> <threshold>
// (margin <m>): <paper's words>" line each, the margin positive when the
// clause holds; the last is "violations == 0", the invariant sweeps. Then
// comes "claim: holds", or "claim: FAILS: " and each failing clause, one per
// line, the sweeps' period lines last (the exit status ignores it). With -trace,
// every elasticity decision (rule evaluations, migrations, provisioning,
// chaos injections) of every id is streamed to the given JSONL file as it is
// recorded; inspect it with cmd/plasma-trace (summarize/filter/diff) or
// convert it with `plasma-trace chrome` for Perfetto. Traces at a fixed seed
// are byte-identical across runs. An unknown id exits 2, and a trace file
// that cannot be created exits 1, before any id runs.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

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
	traceOut := fl.String("trace", "", "stream a decision trace (JSONL) to this file")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	known := experiments.IDs()
	ids := fl.Args()
	if len(ids) == 0 {
		ids = known
	}
	for _, id := range ids {
		if !slices.Contains(known, id) {
			fmt.Fprintf(stderr, "plasma-sim: unknown id %q (have %s)\n", id, strings.Join(known, ", "))
			return 2
		}
	}
	cfg := experiments.Config{Full: *full, Seed: *seed, Inputs: &experiments.Inputs{}}
	var fh *os.File
	var bw *bufio.Writer
	if *traceOut != "" {
		var err error
		if fh, err = os.Create(*traceOut); err != nil {
			fmt.Fprintln(stderr, "plasma-sim:", err)
			return 1
		}
		bw = bufio.NewWriter(fh)
		cfg.Trace = trace.New(fileSink{bw})
	}
	for _, id := range ids {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			panic(err) // every id was checked above
		}
		fmt.Fprintf(stdout, "%sclaim: %s\n\n", res.Render(), experiments.Verdict(res.Clauses))
	}
	if fh != nil {
		if err := errors.Join(bw.Flush(), fh.Close()); err != nil {
			fmt.Fprintln(stderr, "plasma-sim:", err)
			return 1
		}
	}
	return 0
}

// fileSink writes each record's JSONL line as it is emitted. A write error
// sticks in the bufio.Writer, which then drops every later write, and
// surfaces at its Flush.
type fileSink struct{ *bufio.Writer }

func (s fileSink) Emit(r trace.Record) { _, _ = s.Write(trace.AppendJSONL(s.AvailableBuffer(), r)) }
