// Command plasma-lint runs PLASMA's static-analysis engine over EPL
// policies: the analyzer's passes (satisfiability, flapping, shadowing,
// unused declarations — plus the compiler's conflict detection) on each
// .epl target.
//
// Usage:
//
//	plasma-lint [-schema app.json] [-json] [-Werror] [-model] [-explain] policy.epl...
//
// Every target must be a .epl file; none, or any other target, is a usage
// error. The simulator's own determinism is checked by running it (the
// run-twice tests) and by the call rule in internal/core's tests, not here.
//
// -model additionally runs the offline model checker on each .epl target:
// the policy is compiled into a finite transition system over abstract
// scaling states (fleet size × provisioning-pool occupancy × discretized
// load) closed by a workload envelope, and checked for oscillation
// (EPL200), overload dead states (EPL201), unreachable rules (EPL202),
// warm-pool dead ends (EPL203), and //lint:assert probabilistic bounds
// (EPL210). -explain (implies -model) prints each finding's concrete
// counterexample path tick by tick.
//
// Exit status: 0 clean, 1 findings at error severity (or warning severity
// with -Werror), 2 usage or I/O failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"plasma/internal/epl"
	"plasma/internal/lint"
	"plasma/internal/lint/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("plasma-lint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	jsonOut := fl.Bool("json", false, "emit findings as JSON")
	werror := fl.Bool("Werror", false, "exit nonzero on warnings, not only errors")
	schemaPath := fl.String("schema", "", "application schema JSON for policy checking")
	doModel := fl.Bool("model", false, "run the scaling-state model checker on .epl targets")
	explain := fl.Bool("explain", false, "print counterexample paths for model-checker findings (implies -model)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *explain {
		*doModel = true
	}

	epls := fl.Args()
	notPolicy := func(t string) bool { return !strings.HasSuffix(t, ".epl") }
	if len(epls) == 0 || slices.ContainsFunc(epls, notPolicy) {
		fmt.Fprintln(stderr, "usage: plasma-lint [-schema app.json] [-json] [-Werror] [-model] [-explain] policy.epl...")
		return 2
	}

	schema, err := epl.ReadSchema(*schemaPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var diags []lint.Diagnostic
	var findings []model.Finding
	for _, path := range epls {
		pol, fileDiags := lintPolicyFile(path, schema)
		diags = append(diags, fileDiags...)
		if *doModel && pol != nil {
			fs := model.Check(pol)
			for i := range fs {
				fs[i].File = path
			}
			findings = append(findings, fs...)
			diags = append(diags, model.Diagnostics(fs)...)
		}
	}
	lint.SortDiagnostics(diags)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Diagnostics []lint.Diagnostic `json:"diagnostics"`
			Model       []model.Finding   `json:"model,omitempty"`
		}{Diagnostics: diags}
		if out.Diagnostics == nil {
			out.Diagnostics = []lint.Diagnostic{}
		}
		if *doModel {
			out.Model = findings
			if out.Model == nil {
				out.Model = []model.Finding{}
			}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if *explain {
			for _, f := range findings {
				if len(f.Path) == 0 {
					continue
				}
				fmt.Fprintf(stdout, "\ncounterexample for %s (%s):\n%s", f.File, f.Code, model.FormatPath(f))
			}
		}
	}

	bar := lint.Error
	if *werror {
		bar = lint.Warning
	}
	if lint.MaxSeverity(diags) >= bar {
		return 1
	}
	return 0
}

// lintPolicyFile parses, checks, and analyzes one .epl file, returning the
// checked policy for the model checker (nil when it does not parse or
// check). Failures surface as EPL000 diagnostics rather than aborting the
// run, so a corpus lints in one pass.
func lintPolicyFile(path string, schema *epl.Schema) (*epl.Policy, []lint.Diagnostic) {
	fail := func(msg string) (*epl.Policy, []lint.Diagnostic) {
		return nil, []lint.Diagnostic{{
			Code: lint.CodeParse, Severity: lint.Error, File: path,
			Line: 1, Col: 1, Message: msg,
		}}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err.Error())
	}
	pol, err := epl.Parse(string(data))
	if err != nil {
		return fail(err.Error())
	}
	diags, err := lint.CheckAndAnalyze(pol, schema)
	if err != nil {
		return fail(err.Error())
	}
	for i := range diags {
		diags[i].File = path
	}
	return pol, diags
}
