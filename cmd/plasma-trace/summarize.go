package main

import (
	"fmt"
	"sort"
	"strings"

	"plasma/internal/trace"
)

// Summarize renders decision churn for a trace: per-kind record counts,
// rule fire counts, migration activity per actor, and deny reasons. The
// map-keyed sections print in sorted key order, so the same trace always
// summarizes to the same bytes and two summaries can be diffed.
func Summarize(recs []trace.Record) string {
	var b strings.Builder
	if len(recs) == 0 {
		b.WriteString("empty trace\n")
		return b.String()
	}

	ticks := 0
	byKind := map[trace.Kind]int{}
	ruleFires := map[int32]int{}
	denies := map[string]int{}
	type actorChurn struct {
		transfers, commits, rollbacks, denies int
	}
	churn := map[uint64]*actorChurn{}
	churnFor := func(id uint64) *actorChurn {
		c := churn[id]
		if c == nil {
			c = &actorChurn{}
			churn[id] = c
		}
		return c
	}

	for _, r := range recs {
		byKind[r.Kind]++
		switch r.Kind {
		case trace.KindTick:
			ticks++
		case trace.KindRuleFire:
			ruleFires[r.Rule]++
		case trace.KindDeny:
			reason := r.Detail
			if reason == "" {
				reason = "(unspecified)"
			}
			denies[reason]++
			if r.Actor != 0 {
				churnFor(r.Actor).denies++
			}
		case trace.KindTransfer:
			churnFor(r.Actor).transfers++
		case trace.KindCommit:
			churnFor(r.Actor).commits++
		case trace.KindRollback:
			if r.Actor != 0 {
				churnFor(r.Actor).rollbacks++
			}
		}
	}

	fmt.Fprintf(&b, "records: %d  ticks: %d  span: t=%d..%d\n",
		len(recs), ticks, int64(recs[0].At), int64(recs[len(recs)-1].At))

	b.WriteString("\nby kind:\n")
	for _, k := range trace.Kinds() {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(&b, "  %-14s %d\n", k, n)
		}
	}

	if len(ruleFires) > 0 {
		b.WriteString("\nrule fires:\n")
		rules := make([]int32, 0, len(ruleFires))
		for r := range ruleFires {
			rules = append(rules, r)
		}
		sort.Slice(rules, func(i, j int) bool { return rules[i] < rules[j] })
		for _, r := range rules {
			fmt.Fprintf(&b, "  rule %-3d %d\n", r, ruleFires[r])
		}
	}

	if len(churn) > 0 {
		b.WriteString("\nmigrations per actor (transfers/commits/rollbacks/denies):\n")
		ids := make([]uint64, 0, len(churn))
		for id := range churn {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			c := churn[id]
			fmt.Fprintf(&b, "  actor %-6d %d/%d/%d/%d\n", id, c.transfers, c.commits, c.rollbacks, c.denies)
		}
	}

	if len(denies) > 0 {
		b.WriteString("\ndeny reasons:\n")
		reasons := make([]string, 0, len(denies))
		for r := range denies {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(&b, "  %-14s %d\n", r, denies[r])
		}
	}
	return b.String()
}
