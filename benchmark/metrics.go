package main

// metric declares one reported number. BENCHMARK.json at the root of the
// repository repeats these declarations; TestManifestMatches keeps the two
// in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Host marks a metric read from the host clock or allocator. The rest
	// are simulated statistics: a fixed (workload, seed, seconds) repeats
	// them exactly.
	Host bool
}

// endToEnd are the nine metrics every workload reports in an untraced run.
// All are lower-is-better.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
	{Name: "run_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
	{Name: "run_cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
	{Name: "run_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15, Host: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Host: true},
	{Name: "sim_op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "sim_op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_slo_viol_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_server_s", Unit: "s", Better: "lower", Bound: 0.05},
}

// cpuLayers are the buckets a CPU-profile sample can land in, in the order
// the shares are printed. Their shares sum to 1.
var cpuLayers = []string{
	"graph", "sim", "cluster", "actor", "profile", "epl", "emr", "trace",
	"apps", "harness", "other", "runtime.gc",
}

// shareName is the per-layer metric holding a CPU-profile bucket's share.
func shareName(layer string) string {
	if layer == "runtime.gc" {
		return "runtime.gc_cpu_share"
	}
	return layer + ".cpu_share"
}

// perLayer are the metrics of single layers, reported by a traced run.
var perLayer = []metric{
	{Name: "graph.gen_s", Unit: "s", Better: "lower"},
	{Name: "graph.partition_s", Unit: "s", Better: "lower"},
	{Name: "graph.edge_cut", Unit: "count", Better: "lower"},
	{Name: "graph.cpu_share", Unit: "share", Better: "lower"},

	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.peak_queue", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.sched_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "share", Better: "lower"},

	{Name: "cluster.exec_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cluster.provisions", Unit: "count", Better: "lower"},
	{Name: "cluster.decommissions", Unit: "count", Better: "lower"},
	{Name: "cluster.failed_provisions", Unit: "count", Better: "lower"},
	{Name: "cluster.cpu_share", Unit: "share", Better: "lower"},

	{Name: "actor.msgs", Unit: "count", Better: "lower"},
	{Name: "actor.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "actor.migrations", Unit: "count", Better: "lower"},
	{Name: "actor.failed_migrations", Unit: "count", Better: "lower"},
	{Name: "actor.moved_mb", Unit: "MB", Better: "lower"},
	{Name: "actor.shed", Unit: "count", Better: "lower"},
	{Name: "actor.cpu_share", Unit: "share", Better: "lower"},

	{Name: "profile.hook_calls", Unit: "count", Better: "lower"},
	{Name: "profile.hook_self_s", Unit: "s", Better: "lower"},
	{Name: "profile.snapshot_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "profile.cpu_share", Unit: "share", Better: "lower"},

	{Name: "epl.parse_check_us", Unit: "us", Better: "lower"},
	{Name: "epl.eval_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "epl.rule_evals", Unit: "count", Better: "lower"},
	{Name: "epl.rule_fires", Unit: "count", Better: "lower"},
	{Name: "epl.cpu_share", Unit: "share", Better: "lower"},

	{Name: "emr.ticks", Unit: "count", Better: "lower"},
	{Name: "emr.planned_actions", Unit: "count", Better: "lower"},
	{Name: "emr.executed_migrations", Unit: "count", Better: "lower"},
	{Name: "emr.denied_admissions", Unit: "count", Better: "lower"},
	{Name: "emr.resolved_conflicts", Unit: "count", Better: "lower"},
	{Name: "emr.scale_outs", Unit: "count", Better: "lower"},
	{Name: "emr.scale_ins", Unit: "count", Better: "lower"},
	{Name: "emr.retried_reports", Unit: "count", Better: "lower"},
	{Name: "emr.query_timeouts", Unit: "count", Better: "lower"},
	{Name: "emr.stale_reports_used", Unit: "count", Better: "lower"},
	{Name: "emr.useful_action_ratio", Unit: "ratio", Better: "higher"},
	{Name: "emr.plan_ms_per_round.legacy", Unit: "ms", Better: "lower"},
	{Name: "emr.plan_ms_per_round.batch", Unit: "ms", Better: "lower"},
	{Name: "emr.control_host_s", Unit: "s", Better: "lower"},
	{Name: "emr.cpu_share", Unit: "share", Better: "lower"},

	{Name: "trace.records", Unit: "count", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.emit_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.jsonl_encode_s", Unit: "s", Better: "lower"},
	{Name: "trace.jsonl_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.cpu_share", Unit: "share", Better: "lower"},

	{Name: "chaos.intercepted", Unit: "count", Better: "lower"},
	{Name: "chaos.faults", Unit: "count", Better: "lower"},
	{Name: "chaos.crashes", Unit: "count", Better: "lower"},

	{Name: "metrics.report_s", Unit: "s", Better: "lower"},
	{Name: "apps.cpu_share", Unit: "share", Better: "lower"},
	{Name: "harness.cpu_share", Unit: "share", Better: "lower"},
	{Name: "other.cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "spans.overhead_pct", Unit: "%", Better: "lower"},
}
