GO ?= go

# The checked-in baseline bench-quick compares against. The gate's checks
# — missing ids, allocation counts, bit-exact event/summary determinism at
# fixed seed — are timing-immune; wall time is printed, not gated (host-time
# claims are benchmark/'s job).
BENCH_BASELINE ?= BENCH_2026-10-15.json

# Coverage gate: `make cover` fails when total statement coverage drops
# below the floor. Measured 84.4% when the floor was set; the slack keeps
# honest refactors from fighting the gate while still catching a PR that
# lands a subsystem with no tests.
COVER_FLOOR ?= 80.0
COVER_PROFILE ?= coverage.out

# Scratch dir for the trace round-trip smoke test.
TRACE_SMOKE_DIR ?= .trace-smoke

.PHONY: build test vet race bench micro-bench bench-test bench-quick bench-baseline scale-quick burst-quick stream-quick plan-quick lint-model cover trace-smoke quickstart-smoke fuzz-smoke sweep-snapshot loc verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# micro-bench runs every layer microbenchmark once with its allocation
# count, so they execute on every change instead of only compiling. One
# iteration times nothing worth reading; run the command without -benchtime
# for figures. By package:
#   internal/sim: BenchmarkKernelQueue, each world (shallow, deep, tick,
#     stream) at one of the repository benchmark's four queue regimes;
#   internal/actor: a client request → forward → reply, an actor → actor
#     Send, BenchmarkIdleDelivery — fleet_control's shape, 4,096 actors on
#     one self-message cycle, every delivery finding its actor idle — and
#     BenchmarkDeliverFleet, fleet_control's miss pattern: idle deliveries to
#     random actors of a 131,072-actor runtime, and BenchmarkBarrierRound,
#     pagerank_rebalance's barrier: a coordinator and 56 workers on 7
#     machines, each worker sending 55 boundary messages and a done (ceiling:
#     TestBarrierRoundAllocCeiling);
#   internal/profile: the EPR's per-message hook at fanin 4 and 64, a steady
#     Snapshot of 1,024 actors, and a sparse Snapshot of a 131,072-actor
#     fleet with 1% messaged each period;
#   internal/metrics: a p50 and a p99 query over 10, 100 and 1,000 samples
#     and over 3.4M, a benchmark run's pooled size (a query moves no sample,
#     so every iteration queries the same histogram), and filling a
#     histogram with 3.4M samples, whose B/op is what the samples cost;
#   internal/apps/workload: ZipfKeys.Draw at the stream experiments' shape
#     and the same loop over rand.Zipf, the variates it reproduces;
#   internal/graph: PartitionMultilevel on power-law graphs: 36k vertices
#     into 56 parts (pagerank_rebalance's partitioning, ten levels), 12k
#     into 32, and 36k into 1,024 (one level, 43 hubs: most vertices tally
#     from their adjacency);
#   internal/trace: BenchmarkRingEmit, one Emit into a decision-trace ring
#     that has wrapped (a traced run's steady state; 0 allocs/op), and
#     BenchmarkWriteJSONL, exporting 64k stream-shaped records into a fresh
#     bytes.Buffer, which WriteJSONL grows once to the trace's size (ceiling:
#     TestWriteJSONLAllocCeiling);
#   internal/epl: BenchmarkEvaluate, the Media Service policy over a
#     profiler-shaped snapshot of 128 clients' actors, its interaction
#     rules joined on who called whom (ceiling: TestEvaluateAllocCeiling).
MICRO_BENCH = KernelQueue|RequestReply|Send|IdleDelivery|DeliverFleet|BarrierRound|OnMessage|SnapshotSteady|SnapshotSparse|Percentile|Observe|ZipfKeysDraw|PartitionMultilevel|RingEmit|WriteJSONL|Evaluate
micro-bench:
	$(GO) test -run '^$$' -bench '^Benchmark($(MICRO_BENCH))$$' -benchtime 1x -benchmem ./internal/sim ./internal/actor ./internal/profile ./internal/metrics ./internal/apps/workload ./internal/graph ./internal/trace ./internal/epl

# bench-test runs the repository benchmark's own tests (benchmark/ is a
# nested module, so `go test ./...` from the root never reaches them).
bench-test:
	cd benchmark && $(GO) test ./...

# bench-quick measures the quick-scale evaluation sweep and fails on
# regression against the checked-in baseline: a missing id, alloc growth
# past plasma-bench's allocTolerance, or any determinism drift at fixed seed.
bench-quick:
	$(GO) run ./cmd/plasma-bench -compare $(BENCH_BASELINE)

# bench-baseline regenerates the checked-in baseline (run on a quiet
# machine; commit the refreshed JSON alongside the change justifying it).
bench-baseline:
	$(GO) run ./cmd/plasma-bench -json -o $(BENCH_BASELINE)

# Each <family>-quick target below also runs its ids' share of
# TestAllQuickIDsDeterministic, which checks every row's claim at seeds 1 and
# 2. go test splits -run at each slash, so the part after it filters the
# subtests of every test the part before it selects.

# scale-quick runs the beyond-the-paper scalability family end to end at
# quick sizes, with the slow 100k smoke test skipped via -short.
scale-quick:
	$(GO) run ./cmd/plasma-sim scale
	$(GO) test -short -run 'TestScale|TestAllQuickIDsDeterministic/^scale$$' ./internal/experiments/

# burst-quick runs the burst/failure robustness family at quick sizes: the
# flash-crowd sweep across the provisioning spectrum, the chaos-composed
# flash-during-GEM-crash run, and the burst shape/determinism tests.
burst-quick:
	$(GO) run ./cmd/plasma-sim burst_flash burst_chaos
	$(GO) test -run 'TestBurst|TestAllQuickIDsDeterministic/^burst_' ./internal/experiments/

# stream-quick runs the windowed streaming family at quick sizes: the
# skew-shift recovery race against the Elasticutor-style repartitioner, the
# chaos-composed shift, and the stream acceptance/shape/determinism tests
# (including the pinned seed-1 recovery numbers).
stream-quick:
	$(GO) run ./cmd/plasma-sim stream_skew stream_chaos
	$(GO) test -run 'TestStream|TestAllQuickIDsDeterministic/^stream_' ./internal/experiments/

# plan-quick runs the planner family at quick sizes: both plan_* regression
# ids (DESIGN.md §11), the planner unit/regression suite (band math, packing,
# affinity anchoring, the seeded property test and the allocation ceiling —
# both match TestPlanRound), and the decision-throughput benchmark at its
# quick scale.
plan-quick:
	$(GO) run ./cmd/plasma-sim plan_pagerank plan_halo
	$(GO) test -run 'TestPlan|TestBatch|TestGroupAnchor|TestDecisionBench' ./internal/emr/
	$(GO) test -run 'TestPlan|TestAllQuickIDsDeterministic/^plan_' ./internal/experiments/
	$(GO) test -bench 'PlannerDecision/64k' -benchtime 1x -run '^$$' ./internal/emr/

# lint-model runs the offline policy model checker: the model package's
# corpus verdicts and the shipped-policy gate (every internal/apps, Table 1
# and examples/ policy must be EPL2xx-clean), then the CLI end to end with
# -model -Werror over the clean corpus policies (any new model finding —
# oscillation, overload dead state, pool dead end, assert violation —
# fails the build), then the checker against the simulator: the seeded
# oscillating policy is flagged EPL200 and its counterexample, replayed,
# oscillates in the trace records; EPL200-clean policies stay under the flap
# bound over a drift sweep; the sweep generator stays in its envelope.
lint-model:
	$(GO) test -count=1 ./internal/lint/model/
	$(GO) run ./cmd/plasma-lint -model -Werror internal/lint/testdata/clean_*.epl internal/lint/testdata/assert_ok.epl
	$(GO) test -run 'TestCounterexampleReplay|TestCleanPoliciesDoNotFlap|TestDriftWalk' ./internal/experiments/

# cover measures total statement coverage and fails below COVER_FLOOR.
# CI uploads $(COVER_PROFILE) as an artifact for inspection.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# trace-smoke round-trips the decision tracer end to end: a quick traced
# experiment run twice at the same seed must produce byte-identical JSONL,
# summarize and diff must accept it, filter with no selector must write it
# back byte for byte (read then write is the identity), and the Chrome
# export must render. Then the whole quick sweep is traced into one file,
# every id's worlds one after another: filter must write it back byte for
# byte and summarize must read it.
trace-smoke:
	@rm -rf $(TRACE_SMOKE_DIR) && mkdir -p $(TRACE_SMOKE_DIR)
	$(GO) run ./cmd/plasma-sim -trace $(TRACE_SMOKE_DIR)/a.jsonl fig5 > /dev/null
	$(GO) run ./cmd/plasma-sim -trace $(TRACE_SMOKE_DIR)/b.jsonl fig5 > /dev/null
	cmp $(TRACE_SMOKE_DIR)/a.jsonl $(TRACE_SMOKE_DIR)/b.jsonl
	$(GO) run ./cmd/plasma-trace summarize $(TRACE_SMOKE_DIR)/a.jsonl | grep -q '^records:'
	$(GO) run ./cmd/plasma-trace diff $(TRACE_SMOKE_DIR)/a.jsonl $(TRACE_SMOKE_DIR)/b.jsonl > /dev/null
	$(GO) run ./cmd/plasma-trace filter $(TRACE_SMOKE_DIR)/a.jsonl | cmp - $(TRACE_SMOKE_DIR)/a.jsonl
	$(GO) run ./cmd/plasma-trace chrome $(TRACE_SMOKE_DIR)/a.jsonl > $(TRACE_SMOKE_DIR)/a.trace.json
	$(GO) run ./cmd/plasma-sim -trace $(TRACE_SMOKE_DIR)/all.jsonl > /dev/null
	$(GO) run ./cmd/plasma-trace filter $(TRACE_SMOKE_DIR)/all.jsonl | cmp - $(TRACE_SMOKE_DIR)/all.jsonl
	$(GO) run ./cmd/plasma-trace summarize $(TRACE_SMOKE_DIR)/all.jsonl | grep -q '^records:'
	@rm -rf $(TRACE_SMOKE_DIR)
	@echo "trace-smoke OK: same-seed traces byte-identical, tooling round-trips, whole-sweep trace read back"

# fuzz-smoke gives each fuzzer ten seconds on top of its checked-in corpus
# (the package's testdata/fuzz and its f.Add seeds). FuzzKernelOrder: random
# programs of After/At/Every/Run/Step calls, every fire compared with a
# sorted-slice reference; its same-instant-batch corpus entry gathers 64
# events at one far instant from staged earlier instants, so one refill
# files 63 of them into one bottom slot, and its bottom-block-edges entry
# schedules either side of the 4,096 µs block edges. FuzzPolicy: EPL source that parses must print,
# reparse to the same condition trees and print the same string, and
# epl.Check and the analyzer must not panic on it. FuzzEvaluate: every
# policy that parses and passes epl.Check, evaluated against a snapshot of
# 1-8 servers and up to 32 actors decoded from bytes, must not panic, must
# give the same intents twice, must give the intents and firings of the
# literal cross product in spec_test.go, may name only actors in the
# snapshot, and gives one intent per balance or provclass behavior. FuzzSchema: the schema file
# parser must not panic on any bytes, every schema it accepts must hold one
# class per entry under a non-empty, unique name, and epl.Check against it
# must not panic. FuzzEnvelope: the //lint:envelope and
# //lint:assert parsers and the envelope's validation must not panic on any
# source. FuzzTraceJSONL: ReadJSONL must not panic on arbitrary bytes, and
# every line AppendJSONL writes must parse and round-trip its record.
# FuzzSnapshot: random programs of spawns, stops, sends, property, memory
# and pin changes, migrations, crashes with recovery, runs, resets and
# snapshots on a 4-machine cluster, every snapshot of the sparse refresh
# compared field for field with a from-scratch build. FuzzPercentile: random
# programs of Observe calls (NaN, ±Inf, ±0, duplicates, raw floats) and
# queries, every Histogram percentile compared bit for bit with a sort of the
# samples, up to NaN payloads and zero signs the order cannot tell apart;
# its one-key-range corpus entry puts every sample in one key range, so the
# candidate buffer holds them all.
# FuzzBenchFile: the bench gate's baseline parser must not panic on any
# bytes, and every baseline it accepts must compare clean against itself.
# FuzzPartition: small graphs with self-loops, repeated edges and isolated
# vertices, k in [1, 200], every PartitionMultilevel assignment compared
# with the map-based reference partitioner. FuzzZipf: an exponent in (1, 4],
# up to 2^16 keys and a seed, 2,000 tabled draws compared with rand.Zipf's.
# A failing input is written to the corpus directory and fails `go test`
# from then on. Minimising each coverage-increasing input is
# capped at a second — the default minute would take the rest of the smoke.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKernelOrder -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzPolicy -fuzztime 10s -fuzzminimizetime 1s ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzEvaluate -fuzztime 10s -fuzzminimizetime 1s ./internal/epl
	$(GO) test -run '^$$' -fuzz FuzzSchema -fuzztime 10s -fuzzminimizetime 1s ./internal/epl
	$(GO) test -run '^$$' -fuzz FuzzEnvelope -fuzztime 10s -fuzzminimizetime 1s ./internal/lint/model
	$(GO) test -run '^$$' -fuzz FuzzTraceJSONL -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/profile
	$(GO) test -run '^$$' -fuzz FuzzPercentile -fuzztime 10s -fuzzminimizetime 1s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzBenchFile -fuzztime 10s -fuzzminimizetime 1s ./cmd/plasma-bench
	$(GO) test -run '^$$' -fuzz FuzzPartition -fuzztime 10s -fuzzminimizetime 1s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzZipf -fuzztime 10s -fuzzminimizetime 1s ./internal/apps/workload

# quickstart-smoke runs the one example end to end: the worker pool's
# balance rule must perform at least one migration.
quickstart-smoke:
	$(GO) run ./examples/quickstart | grep -q 'migrations performed: [1-9]'

# sweep-snapshot writes everything a byte-identity refactor is held to into
# OUT: the quick plasma-sim sweep at seeds 1 and 2 — every report and claim
# verdict — and one decision trace per experiment id. Run it on the parent
# commit and on the change, then `diff -r` the two directories.
sweep-snapshot:
	@test -n "$(OUT)" || { echo "usage: make sweep-snapshot OUT=<dir>"; exit 2; }
	@mkdir -p $(OUT)
	$(GO) build -o $(OUT)/.bin/ ./cmd/plasma-sim
	@set -e; for seed in 1 2; do \
		$(OUT)/.bin/plasma-sim -seed $$seed > $(OUT)/sweep-seed$$seed.txt; \
	done; \
	for id in $$(sed -n 's/^== \([a-z0-9_]*\): .*/\1/p' $(OUT)/sweep-seed1.txt); do \
		$(OUT)/.bin/plasma-sim -trace $(OUT)/$$id.jsonl $$id > /dev/null; \
	done
	@rm -rf $(OUT)/.bin
	@echo "sweep-snapshot: wrote $(OUT)/sweep-seed{1,2}.txt and one <id>.jsonl per id"

# loc prints the root module's non-test Go line count — the figure behind
# the net non-test line delta every PR reports (ROADMAP aim 2) — then its
# test-file line count, so code moved into tests shows as a rise there and
# not as a reduction, and then the share held by internal/experiments, the largest package, by
# internal/emr, the control plane, by internal/profile and internal/actor,
# the EPR and the runtime under it, by internal/sim, the kernel, by
# internal/epl, internal/lint and internal/core, the policy front end, by
# internal/baseline, the comparison managers, by internal/apps and
# internal/graph, the applications and the PageRank graph substrate, by
# internal/cluster, internal/trace, internal/metrics and internal/chaos, the
# machines, the decision tracer, the report tables and the fault injector,
# and by cmd/plasma-bench and cmd/plasma-trace.
GO_MODULE = ! -path './benchmark/*' ! -path './.bench_build/*'
GO_NONTEST = -name '*.go' ! -name '*_test.go' $(GO_MODULE)
LOC_PKGS = internal/experiments internal/emr internal/profile internal/actor internal/sim internal/epl internal/lint internal/core internal/baseline internal/apps internal/graph internal/cluster internal/trace internal/metrics internal/chaos cmd/plasma-bench cmd/plasma-trace
loc:
	@echo "module $$(find . $(GO_NONTEST) | xargs cat | wc -l) tests $$(find . -name '*_test.go' $(GO_MODULE) | xargs cat | wc -l) $$(for d in $(LOC_PKGS); do printf ' %s %s' $$d $$(find ./$$d $(GO_NONTEST) | xargs cat | wc -l); done)"

# verify is the pre-merge gate: everything compiles, vet is clean, the full
# suite passes under the race detector (determinism included: the run-twice
# tests at two seeds and core's wall-clock/global-rand call rule), the policy
# model checker passes every shipped policy — the one lint stage — the
# layer microbenchmarks run,
# the benchmark harness's own tests pass, the quick-scale sweep shows no perf
# regression or determinism drift against the checked-in bench baseline, the
# decision tracer round-trips, the quickstart example migrates, and the
# kernel order, policy, evaluator, envelope, trace JSONL, snapshot,
# percentile, bench-baseline, partition and Zipf fuzzers find nothing in ten
# seconds each.
verify: build vet race lint-model micro-bench bench-test bench-quick trace-smoke quickstart-smoke fuzz-smoke
