// Command plasmac is PLASMA's elasticity-rule compiler (the "PLASMA
// compiler" of Fig. 2): it parses an EPL policy, checks it against an
// optional application schema, reports conflict warnings, and emits the
// compiled elasticity configuration as JSON.
//
// Usage:
//
//	plasmac [-schema app.json] [-lint] [-json] [-Werror] policy.epl
//	plasmac -e 'server.cpu.perc > 80 => balance({Worker}, cpu);'
//
// -lint runs the static-analysis passes (satisfiability, flapping,
// shadowing, unused declarations) on top of the compiler's own conflict
// detection; the offline scaling-state model checker (EPL2xx) is
// plasma-lint -model. -json embeds the per-rule diagnostics in the emitted
// JSON (instead of printing them to stderr). -Werror exits nonzero when any
// diagnostic of warning severity or above is produced.
//
// The schema file declares actor classes:
//
//	{"actors": [{"name": "Folder", "functions": ["open"], "props": ["files"]}]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"plasma/internal/epl"
	"plasma/internal/lint"
)

type schemaFile struct {
	Actors []struct {
		Name      string   `json:"name"`
		Parent    string   `json:"parent"`
		Functions []string `json:"functions"`
		Props     []string `json:"props"`
	} `json:"actors"`
}

// ruleJSON is the compiled form of one rule.
type ruleJSON struct {
	Index       int      `json:"index"`
	Condition   string   `json:"condition"`
	Behaviors   []string `json:"behaviors"`
	Class       string   `json:"class"`
	Variables   []string `json:"variables,omitempty"`
	ResourceFor []string `json:"resourceRuleFor,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("plasmac", flag.ContinueOnError)
	fl.SetOutput(stderr)
	expr := fl.String("e", "", "inline policy source instead of a file")
	schemaPath := fl.String("schema", "", "application schema JSON for checking")
	doLint := fl.Bool("lint", false, "run the static-analysis passes in addition to conflict detection")
	jsonDiags := fl.Bool("json", false, "embed diagnostics in the JSON output instead of printing to stderr")
	werror := fl.Bool("Werror", false, "exit nonzero on diagnostics of warning severity or above")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	src := *expr
	if src == "" {
		if fl.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: plasmac [-schema app.json] [-lint] [-json] [-Werror] policy.epl  |  plasmac -e '<rules>'")
			return 2
		}
		data, err := os.ReadFile(fl.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		src = string(data)
	}

	var schema *epl.Schema
	if *schemaPath != "" {
		data, err := os.ReadFile(*schemaPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		var sf schemaFile
		if err := json.Unmarshal(data, &sf); err != nil {
			fmt.Fprintf(stderr, "plasmac: bad schema: %v\n", err)
			return 1
		}
		var classes []*epl.ActorSchema
		for _, a := range sf.Actors {
			classes = append(classes, &epl.ActorSchema{
				Name: a.Name, Parent: a.Parent, Functions: a.Functions, Props: a.Props,
			})
		}
		schema = epl.NewSchema(classes...)
	}

	pol, err := epl.Parse(src)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	warns, err := epl.Check(pol, schema)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	diags := make([]lint.Diagnostic, 0, len(warns))
	for _, w := range warns {
		diags = append(diags, lint.Diagnostic{
			Code: w.Code, Severity: lint.Warning,
			Line: w.Pos.Line, Col: w.Pos.Col,
			Message: w.Msg, Rules: w.Rules,
		})
	}
	if *doLint {
		diags = append(diags, lint.AnalyzePolicy(pol, schema)...)
	}
	lint.SortDiagnostics(diags)
	if !*jsonDiags {
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
	}

	out := struct {
		Rules       []ruleJSON        `json:"rules"`
		Warnings    int               `json:"warnings"`
		Diagnostics []lint.Diagnostic `json:"diagnostics,omitempty"`
	}{Warnings: len(warns)}
	if *jsonDiags {
		out.Diagnostics = diags
		if out.Diagnostics == nil {
			out.Diagnostics = []lint.Diagnostic{}
		}
	}
	for _, r := range pol.Rules {
		rj := ruleJSON{Index: r.Index, Condition: r.Cond.String()}
		for _, b := range r.Behaviors {
			rj.Behaviors = append(rj.Behaviors, b.String())
		}
		switch {
		case r.HasResourceBehavior() && r.HasInteractionBehavior():
			rj.Class = "resource+interaction"
		case r.HasResourceBehavior():
			rj.Class = "resource"
		default:
			rj.Class = "interaction"
		}
		for _, v := range r.Vars {
			rj.Variables = append(rj.Variables, fmt.Sprintf("%s:%s", v.Name, v.Type))
		}
		out.Rules = append(out.Rules, rj)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
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
