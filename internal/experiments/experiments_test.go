package experiments

import (
	"strings"
	"testing"
)

// The shape assertions below encode the paper's qualitative claims: each
// experiment must reproduce who wins and in which direction, not absolute
// AWS numbers.

func TestTable1AllAppsCompile(t *testing.T) {
	r := Table1(Config{})
	if r.Summary["apps"] != 9 {
		t.Fatalf("apps = %v", r.Summary["apps"])
	}
	for _, row := range r.Rows {
		if row[3] != "yes" {
			t.Fatalf("app %s failed to compile: %v", row[0], row)
		}
	}
	if r.Summary["total_rules"] != 19 {
		t.Fatalf("total rules = %v, want 19", r.Summary["total_rules"])
	}
}

// The four applications that exist only as Table 1 rows: each one's policy
// parses and checks against its schema.
func TestPolicyChecksAgainstSchema(t *testing.T) {
	rows := map[string][]string{}
	for _, row := range Table1(Config{}).Rows {
		rows[row[0]] = row
	}
	for _, tc := range []struct{ name, app string }{
		{"bptree", "B+ tree"},
		{"cassandra", "Cassandra"},
		{"piccolo", "Piccolo"},
		{"zexpander", "zExpander"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row, ok := rows[tc.app]
			if !ok {
				t.Fatalf("no Table 1 row for %s", tc.app)
			}
			if row[3] != "yes" {
				t.Fatalf("%s policy does not check against its schema: %s", tc.app, row[3])
			}
		})
	}
}

func TestTable3OverheadWithinPaperBound(t *testing.T) {
	r := Table3(Config{})
	if w := r.Summary["worst_overhead"]; w <= 0 || w > 0.023 {
		t.Fatalf("worst overhead = %v, want (0, 2.3%%]", w)
	}
}

func TestFig5ShapesMatchPaper(t *testing.T) {
	r := Fig5(Config{})
	resCol := r.Summary["rescol_vs_norule_reduction"]
	defRule := r.Summary["defrule_vs_norule_reduction"]
	if resCol < 25 {
		t.Fatalf("res-col reduction %v%%, want >= 25%% (paper ~40%%)", resCol)
	}
	if defRule > resCol/2 {
		t.Fatalf("def-rule reduction %v%% too close to res-col %v%%", defRule, resCol)
	}
}

func TestFig6aPlasmaBeatsOrleans(t *testing.T) {
	r := Fig6a(Config{})
	if imp := r.Summary["plasma_improvement_pct"]; imp <= 2 {
		t.Fatalf("plasma improvement %v%%, want > 2%% (paper ~24%%)", imp)
	}
}

func TestFig6bFewerServersSimilarBallpark(t *testing.T) {
	r := Fig6b(Config{})
	if r.Summary["servers_plasma"] >= r.Summary["servers_conservative"] {
		t.Fatalf("plasma used %v servers vs conservative %v",
			r.Summary["servers_plasma"], r.Summary["servers_conservative"])
	}
	ratio := r.Summary["converged_ms_plasma"] / r.Summary["converged_ms_conservative"]
	if ratio > 2.5 {
		t.Fatalf("plasma %vx slower than conservative; too far from the paper's parity", ratio)
	}
}

func TestFig7aPlasmaGainExceedsMizan(t *testing.T) {
	r := Fig7a(Config{})
	p, m := r.Summary["gain_pct_plasma"], r.Summary["gain_pct_mizan"]
	if p <= m {
		t.Fatalf("plasma gain %v%% not above mizan %v%% (paper: 24%% vs <=3%%)", p, m)
	}
	if p <= 0 {
		t.Fatalf("plasma gain %v%%", p)
	}
}

func TestFig7bcImbalanceShrinks(t *testing.T) {
	r := Fig7bc(Config{})
	first, last := r.Summary["cpu_imbalance_first"], r.Summary["cpu_imbalance_last"]
	if last >= first {
		t.Fatalf("imbalance %v -> %v; balancing had no effect", first, last)
	}
	if r.Summary["migrations"] == 0 {
		t.Fatal("no migrations recorded")
	}
}

func TestFig8ScaleOutImprovesIterations(t *testing.T) {
	r := Fig8(Config{})
	if r.Summary["speedup"] < 1.5 {
		t.Fatalf("speedup = %v, want visible round-by-round improvement", r.Summary["speedup"])
	}
	if r.Summary["final_servers"] < 3 {
		t.Fatalf("final servers = %v", r.Summary["final_servers"])
	}
	if r.Summary["scaleouts"] == 0 {
		t.Fatal("no scale-outs")
	}
}

func TestFig9PlasmaMatchesInApp(t *testing.T) {
	r := Fig9(Config{})
	none := r.Summary["tail_ms_none"]
	plasma := r.Summary["tail_ms_plasma"]
	inapp := r.Summary["tail_ms_in-app"]
	if plasma >= none || inapp >= none {
		t.Fatalf("elastic setups not below none: plasma=%v inapp=%v none=%v", plasma, inapp, none)
	}
	ratio := plasma / inapp
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("plasma/in-app ratio %v; paper says they track closely", ratio)
	}
}

func TestFig10ShorterPeriodReclaimsFaster(t *testing.T) {
	r := Fig10(Config{})
	if r.Summary["peak_servers_20s"] <= 4 {
		t.Fatal("fleet never grew")
	}
	if r.Summary["final_servers_20s"] > r.Summary["final_servers_60s"] {
		t.Fatalf("20s period ended with %v servers vs 60s period's %v; shorter should reclaim faster",
			r.Summary["final_servers_20s"], r.Summary["final_servers_60s"])
	}
	if r.Summary["mean_latency_ms_20s"] > r.Summary["mean_latency_ms_60s"]*1.15 {
		t.Fatalf("short-period latency %v far above long-period %v",
			r.Summary["mean_latency_ms_20s"], r.Summary["mean_latency_ms_60s"])
	}
}

func TestFig11aInterRuleSmoother(t *testing.T) {
	r := Fig11a(Config{})
	if r.Summary["p95_ms_def-rule"] <= r.Summary["p95_ms_inter-rule"] {
		t.Fatalf("def-rule p95 %v not above inter-rule %v",
			r.Summary["p95_ms_def-rule"], r.Summary["p95_ms_inter-rule"])
	}
}

func TestFig11bMisplacedPayUntilRedistribution(t *testing.T) {
	r := Fig11b(Config{})
	if r.Summary["misplaced_clients"] == 0 {
		t.Skip("random placement happened to colocate everyone")
	}
	if ratio := r.Summary["misplaced_early_over_late"]; ratio < 1.1 {
		t.Fatalf("misplaced early/late ratio %v, want > 1.1 (paper ~1.35+)", ratio)
	}
}

func TestFig11cSpikeThenStabilizeAndGEMsComparable(t *testing.T) {
	r := Fig11c(Config{})
	if r.Summary["peak_ms_1gem"] < r.Summary["final_ms_1gem"]*1.5 {
		t.Fatalf("no saturation spike: peak %v vs final %v",
			r.Summary["peak_ms_1gem"], r.Summary["final_ms_1gem"])
	}
	f1, f4 := r.Summary["final_ms_1gem"], r.Summary["final_ms_4gem"]
	if f4 > f1*1.3 || f1 > f4*1.3 {
		t.Fatalf("GEM counts diverge: 1gem=%v 4gem=%v", f1, f4)
	}
	if r.Summary["router_servers_1gem"] < 4 {
		t.Fatalf("routers still crowded: %v servers", r.Summary["router_servers_1gem"])
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("bogus", Config{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRenderIncludesHeaderAndSummary(t *testing.T) {
	r := Table1(Config{})
	out := r.Render()
	for _, want := range []string{"table1", "Application", "Metadata Server", "summary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 26 {
		t.Fatalf("registered experiments = %d, want 26 (every table and figure, chaos, and the scale, burst, stream, and batched-planner families)", len(ids))
	}
}
