// Package lint is PLASMA's static-analysis engine for EPL policies: a
// multi-pass analyzer (satisfiability, flapping, shadowing, dead
// declarations — extending the compile-time conflict detection of §4.3)
// whose findings, and the model checker's, share one machine-readable
// Diagnostic type.
package lint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Severity ranks diagnostics. Error means the policy is defective and must
// not be deployed; Warning means it is suspicious and deserves review; Info
// is a style-level observation.
type Severity int

// Severity levels, ordered.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "severity?"
}

// MarshalJSON encodes severities as their names, keeping the JSON output
// stable across reorderings of the enum.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one finding: a stable code, a severity, a source position,
// a human message, and optionally a suggested fix and the policy rule
// indices involved.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	File     string   `json:"file,omitempty"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Fix      string   `json:"fix,omitempty"`
	Rules    []int    `json:"rules,omitempty"`
}

func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.File != "" {
		sb.WriteString(d.File)
		sb.WriteByte(':')
	}
	fmt.Fprintf(&sb, "%d:%d: %s[%s]: %s", d.Line, d.Col, d.Severity, d.Code, d.Message)
	if d.Fix != "" {
		fmt.Fprintf(&sb, " (fix: %s)", d.Fix)
	}
	return sb.String()
}

// SortDiagnostics orders findings by file, position, code, then message, so
// output is deterministic regardless of pass execution order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// MaxSeverity returns the highest severity present, or Info-1 when empty.
func MaxSeverity(diags []Diagnostic) Severity {
	max := Severity(-1)
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}
