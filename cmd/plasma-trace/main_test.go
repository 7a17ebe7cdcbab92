package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"plasma/internal/trace"
)

func sample() []trace.Record {
	return []trace.Record{
		{ID: 1, At: 100, Kind: trace.KindTick, Tick: 1, Server: -1, Target: -1, Rule: -1, Value: 100},
		{ID: 2, Parent: 1, At: 100, Kind: trace.KindRuleFire, Tick: 1, Server: 2, Target: -1, Actor: 7, Rule: 0, Detail: "server.cpu.perc > 85 = 91"},
		{ID: 3, Parent: 1, At: 104, Kind: trace.KindPropose, Tick: 1, Server: 2, Target: 0, Actor: 7, Rule: -1, Value: 40, Detail: "balance"},
		{ID: 4, Parent: 3, At: 108, Kind: trace.KindDeny, Tick: 1, Server: 0, Target: -1, Actor: 7, Rule: -1, Detail: "over-bound"},
		{ID: 5, Parent: 3, At: 112, Kind: trace.KindTransfer, Tick: 1, Server: 2, Target: 1, Actor: 9, Rule: -1, Value: 4096},
		{ID: 6, Parent: 5, At: 120, Kind: trace.KindCommit, Tick: 1, Server: 2, Target: 1, Actor: 9, Rule: -1},
	}
}

func TestSummarizeCountsChurn(t *testing.T) {
	out := Summarize(sample())
	for _, want := range []string{
		"records: 6  ticks: 1",
		"rule 0   1",
		"actor 7      0/0/0/1",
		"actor 9      1/1/0/0",
		"over-bound",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestSummarizeDeterministic: the rule, actor and deny-reason sections are
// keyed by maps, and Go ranges over a map in a different order each time, so
// a section that skipped its sort would print differently across calls.
func TestSummarizeDeterministic(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 16; i++ {
		recs = append(recs,
			trace.Record{Kind: trace.KindRuleFire, Rule: int32(i)},
			trace.Record{Kind: trace.KindDeny, Actor: uint64(100 + i), Detail: fmt.Sprintf("reason-%02d", i)},
			trace.Record{Kind: trace.KindTransfer, Actor: uint64(200 + i)})
	}
	first := Summarize(recs)
	for i := 0; i < 10; i++ {
		if got := Summarize(recs); got != first {
			t.Fatalf("call %d differs:\n--- first ---\n%s--- now ---\n%s", i+2, first, got)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if out := Summarize(nil); !strings.Contains(out, "empty trace") {
		t.Fatalf("empty summary = %q", out)
	}
}

func TestDiffIdentical(t *testing.T) {
	report, same := Diff("a", sample(), "b", sample())
	if !same || !strings.Contains(report, "identical") {
		t.Fatalf("same traces reported different: %s", report)
	}
}

func TestDiffReportsFirstDivergentRecord(t *testing.T) {
	a, b := sample(), sample()
	b[3].Detail = "reserved" // divergent deny reason at record 4
	report, same := Diff("a.jsonl", a, "b.jsonl", b)
	if same {
		t.Fatal("divergent traces reported identical")
	}
	if !strings.Contains(report, "diverge at record 4") {
		t.Fatalf("wrong divergence point:\n%s", report)
	}
	if !strings.Contains(report, `"over-bound"`) || !strings.Contains(report, `"reserved"`) {
		t.Fatalf("report does not show both sides:\n%s", report)
	}
}

func TestDiffReportsLengthMismatch(t *testing.T) {
	a := sample()
	b := sample()[:4]
	report, same := Diff("a", a, "b", b)
	if same {
		t.Fatal("prefix trace reported identical")
	}
	if !strings.Contains(report, "agree on the first 4 records") || !strings.Contains(report, "a has 2 extra") {
		t.Fatalf("length mismatch report wrong:\n%s", report)
	}
}

func newFilter(t *testing.T, args ...string) *filterFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.PanicOnError)
	f := addFilterFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFilterByActorServerKindTime(t *testing.T) {
	recs := sample()

	got, err := newFilter(t, "-actor", "9").apply(recs)
	if err != nil || len(got) != 2 {
		t.Fatalf("actor filter: %d records, err %v", len(got), err)
	}

	// Server filter matches source or target.
	got, err = newFilter(t, "-server", "1").apply(recs)
	if err != nil || len(got) != 2 {
		t.Fatalf("server filter: %d records, err %v", len(got), err)
	}

	got, err = newFilter(t, "-kind", "deny").apply(recs)
	if err != nil || len(got) != 1 || got[0].Kind != trace.KindDeny {
		t.Fatalf("kind filter: %+v, err %v", got, err)
	}

	got, err = newFilter(t, "-from", "104", "-to", "112").apply(recs)
	if err != nil || len(got) != 3 {
		t.Fatalf("time filter: %d records, err %v", len(got), err)
	}

	got, err = newFilter(t, "-rule", "0").apply(recs)
	if err != nil || len(got) != 1 || got[0].Kind != trace.KindRuleFire {
		t.Fatalf("rule filter: %+v, err %v", got, err)
	}

	if _, err = newFilter(t, "-kind", "bogus").apply(recs); err == nil {
		t.Fatal("bogus kind must error")
	}
}
