// Command plasmac is PLASMA's elasticity-rule compiler (the "PLASMA
// compiler" of Fig. 2): it parses an EPL policy, checks it against an
// optional application schema, prints the §4.3 conflict warnings on stderr,
// and emits the compiled elasticity configuration as JSON on stdout.
//
// Usage:
//
//	plasmac [-schema app.json] policy.epl
//	plasmac -e 'server.cpu.perc > 80 => balance({Worker}, cpu);'
//
// It exits 1 when the schema is bad or the policy does not compile;
// warnings never fail it. The static-analysis passes and the model checker,
// with their -json and -Werror surfaces, are plasma-lint's.
//
// The schema file declares actor classes (epl.ReadSchema):
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
)

// ruleJSON is the compiled form of one rule.
type ruleJSON struct {
	Index     int      `json:"index"`
	Condition string   `json:"condition"`
	Behaviors []string `json:"behaviors"`
	Class     string   `json:"class"`
	Variables []string `json:"variables,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("plasmac", flag.ContinueOnError)
	fl.SetOutput(stderr)
	expr := fl.String("e", "", "inline policy source instead of a file")
	schemaPath := fl.String("schema", "", "application schema JSON for checking")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	src := *expr
	if src == "" {
		if fl.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: plasmac [-schema app.json] policy.epl  |  plasmac -e '<rules>'")
			return 2
		}
		data, err := os.ReadFile(fl.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		src = string(data)
	}
	schema, err := epl.ReadSchema(*schemaPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
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
	for _, w := range warns {
		fmt.Fprintln(stderr, w)
	}

	out := struct {
		Rules    []ruleJSON `json:"rules"`
		Warnings int        `json:"warnings"`
	}{Warnings: len(warns)}
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
	return 0
}
