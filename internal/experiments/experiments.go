// Package experiments reproduces every table and figure of PLASMA's
// evaluation (§5) on the simulated cluster: each experiment builds the
// paper's workload, runs the same comparisons, and reports the same rows or
// series. Absolute numbers differ from the AWS testbed; the shapes — who
// wins, by roughly what factor, where crossovers fall — are the deliverable
// (see EXPERIMENTS.md for the paper-vs-measured record).
package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Result is one experiment's output.
type Result struct {
	ID    string // e.g. "fig5"
	Title string

	Header []string
	Rows   [][]string

	// Summary holds the key scalar findings (also consumed by benchmarks).
	Summary map[string]float64
	// Notes records observations comparing against the paper's claims.
	Notes []string

	// EventsFired and PeakQueue aggregate simulation-kernel effort across
	// every kernel the run created (filled by Run, consumed by
	// cmd/plasma-bench for events/sec and queue-pressure reporting). They
	// are not rendered: Render output stays bit-identical per seed.
	EventsFired uint64
	PeakQueue   int

	// Claim is the row's claim checked against this result (nil = it holds;
	// filled by Run). It is not rendered either.
	Claim error
}

// keys returns the summary keys that start with prefix, sorted.
func (r *Result) keys(prefix string) []string {
	var keys []string
	for k := range r.Summary {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (r *Result) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the result as an aligned text table plus summary lines.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 || len(r.Rows) > 0 {
		widths := make([]int, len(r.Header))
		rows := append([][]string{r.Header}, r.Rows...)
		for _, row := range rows {
			for i, c := range row {
				for i >= len(widths) {
					widths = append(widths, 0)
				}
				if len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		for ri, row := range rows {
			for i, c := range row {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
			sb.WriteByte('\n')
			if ri == 0 && len(r.Header) > 0 {
				for i := range r.Header {
					sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
				}
				sb.WriteByte('\n')
			}
		}
	}
	for _, k := range r.keys("") {
		fmt.Fprintf(&sb, "summary %-40s %.4g\n", k, r.Summary[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Config scales experiments: Full reproduces the paper's setup sizes;
// the default (quick) configuration shrinks workloads so the entire
// evaluation runs in seconds, preserving every comparison's shape.
type Config struct {
	Full bool
	Seed int64

	// Trace, when non-nil, receives the structured decision trace of every
	// EMR the experiment builds (see internal/trace). Experiments that run
	// several kernels sequentially re-point its clock at each new kernel,
	// so record timestamps are always the active kernel's virtual time.
	Trace *trace.Tracer

	// Inputs, when set, builds each workload input once for all the Runs
	// that share it; nil builds them per Run, so a benchmarked id times its own.
	Inputs *Inputs

	// stats, when non-nil, is the run's record: the kernels created through
	// Config.world and the invariant sweeps of run (set internally by Run).
	stats *simTracker
}

// world is core.NewWorld with the run's tracer, its kernel registered for
// Run's perf accounting. Experiments that derive several seeds from the base
// one (multi-seed averaging, chaos schedules) pass each; the rest c.Seed.
func (c Config) world(seed int64, machines int, inst cluster.InstanceType) *core.World {
	w := core.NewWorld(seed, machines, inst, c.Trace)
	if c.stats != nil {
		c.stats.add(w.K)
	}
	return w
}

// runSeeds runs one independent trial per seed (seed base, base+1, ...) and
// returns the trials' results in seed order. Each trial must build its own
// world via cfg.world, so trials share no simulation state and the
// index-ordered result slice is deterministic no matter how trials are
// scheduled. Untraced trials run on a goroutine pool; traced runs stay
// sequential because the tracer's clock is re-pointed at each new kernel
// and record order must remain byte-identical per seed.
func runSeeds[T any](cfg Config, seeds int, trial func(idx int, seed int64) T) []T {
	out := make([]T, seeds)
	base := cfg.Seed
	if cfg.Trace != nil || seeds <= 1 {
		for i := range out {
			out[i] = trial(i, base+int64(i))
		}
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > seeds {
		workers = seeds
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = trial(i, base+int64(i))
			}
		}()
	}
	for i := 0; i < seeds; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// simTracker is a Run's record: the kernels the experiment creates, whose
// totals are read once the experiment function returns (all kernels idle by
// then), and the violations run's sweeps found, with the count of sweeps and
// of the periods the arms stepped. The mutex covers runSeeds' goroutines.
type simTracker struct {
	mu              sync.Mutex
	kernels         []*sim.Kernel
	violations      []violation
	sweeps, periods int
}

// violation is a sweep finding; Run sorts them on (period, line), as runSeeds'
// trials record theirs in any order.
type violation struct {
	period int
	line   string
}

func (t *simTracker) add(k *sim.Kernel) {
	t.mu.Lock()
	t.kernels = append(t.kernels, k)
	t.mu.Unlock()
}

func (t *simTracker) totals() (fired uint64, peak int) {
	for _, k := range t.kernels {
		st := k.Stats()
		fired += st.Fired
		if st.PeakQueue > peak {
			peak = st.PeakQueue
		}
	}
	return fired, peak
}

// experiment is one id: its title, the runner that fills its Result (sizes
// already chosen), and its claim — the shape the paper reports, as a
// predicate over the Result (nil = the claim holds).
type experiment struct {
	id, title string
	run       func(cfg Config, r *Result)
	claim     func(r *Result) error
}

// sized picks a runner's sizes: quick by default, full with Config.Full. It
// is the only code in the package that reads Full. Size values are shared by
// every run in the process, runSeeds' goroutines included, so a runner copies
// what it changes and never writes into a slice it got from its size.
func sized[S any](quick, full S, fn func(Config, S, *Result)) func(Config, *Result) {
	return func(cfg Config, r *Result) {
		s := quick
		if cfg.Full {
			s = full
		}
		fn(cfg, s, r)
	}
}

// unless is one clause of a claim: the error format describes, or nil if ok.
func unless(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// The families' sizes, quick then full.
var (
	prQuick = prSetup{vertices: 12000, avgDeg: 10, workers: 32, iterations: 150, perEdge: 55 * sim.Microsecond, syncOver: 12 * sim.Millisecond, period: 500 * sim.Millisecond, boot: 4 * sim.Second}
	prFull  = prSetup{vertices: 24000, avgDeg: 10, workers: 32, iterations: 200, perEdge: 55 * sim.Microsecond, syncOver: 24 * sim.Millisecond, period: sim.Second, boot: 10 * sim.Second}

	haloQuick = haloSize{round: 60 * sim.Second, roundPeriod: 25 * sim.Second, firstRound: 80 * sim.Second,
		servers: 16, routers: 8, sessions: 16, clients: 32, period: 20 * sim.Second, total: 200 * sim.Second, heartbeat: 100 * sim.Millisecond}
	haloFull = haloSize{round: 180 * sim.Second, roundPeriod: 70 * sim.Second, firstRound: 170 * sim.Second,
		servers: 64, routers: 32, sessions: 64, clients: 128, period: 80 * sim.Second, total: 800 * sim.Second, heartbeat: 250 * sim.Millisecond}

	burstQuick = burstSize{flash: 60 * sim.Second, flashClients: 12, spike: 10, diurnal: 90 * sim.Second, region: 80 * sim.Second}
	burstFull  = burstSize{flash: 120 * sim.Second, flashClients: 24, spike: 20, diurnal: 240 * sim.Second, region: 160 * sim.Second}

	// Shifts land mid-window so the first post-shift observation is a window
	// that actually saw shifted traffic.
	streamQuick = streamSize{total: 40 * sim.Second, shift: streamT(18.5), long: 48 * sim.Second,
		drift: []sim.Time{streamT(14.5), streamT(26.5), streamT(38.5)}, spikeFrom: streamT(16.5), spikeTo: streamT(34.5)}
	streamFull = streamSize{total: 90 * sim.Second, shift: streamT(40.5), long: 96 * sim.Second,
		drift: []sim.Time{streamT(20.5), streamT(40.5), streamT(60.5), streamT(80.5)}, spikeFrom: streamT(30.5), spikeTo: streamT(66.5)}
)

// table is every experiment, sorted by id: IDs returns its order, and
// plasma-sim's sweep follows it. Run adds one clause to every claim:
// every invariant sweep came back clean; §4.3: no actor lost, duplicated or
// stranded.
var table = []experiment{
	{"burst_chaos", "Flash crowd during a GEM crash (chaos-composed burst)",
		sized(burstQuick, burstFull, burstChaos), func(r *Result) error {
			s := r.Summary
			return errors.Join(
				unless(s["mean_ctl_fails"] > 0, "no GEM crash applied; the composition is vacuous"),
				unless(s["mean_scale_outs"] > 0, "no scale-out during the flash; §4.3: the surviving GEM's vote carries alone"))
		}},
	{"burst_diurnal", "Diurnal wave: fleet tracks a sinusoidal arrival rate",
		sized(burstQuick, burstFull, burstDiurnal), func(r *Result) error {
			outs, ins := r.Summary["mean_scale_outs"], r.Summary["mean_scale_ins"]
			return unless(outs > 0 && ins > 0, "%v scale-outs, %v scale-ins; the fleet must grow on the crest and be reclaimed in the trough", outs, ins)
		}},
	{"burst_flash", "Flash crowd vs provisioning class: SLO violation and shedding",
		sized(burstQuick, burstFull, burstFlash), func(r *Result) error {
			s := r.Summary
			return errors.Join(
				unless(len(r.Rows) == 3, "%d rows; one per provisioning class", len(r.Rows)),
				unless(s["shed_vm"] > 0, "VM-only provisioning shed nothing; the spike is too weak to test overload"),
				unless(s["scale_outs_warm"] > 0, "the warm-pool run never scaled out"),
				unless(s["shed_warm"] <= s["shed_vm"] && s["slo_viol_s_warm"] <= s["slo_viol_s_vm"], "warm pool shed %v and violated %.1f s, VM %v and %.1f s; the faster class must not do worse",
					s["shed_warm"], s["slo_viol_s_warm"], s["shed_vm"], s["slo_viol_s_vm"]))
		}},
	{"burst_region", "Correlated region failover onto survivors",
		sized(burstQuick, burstFull, burstRegion), func(r *Result) error {
			s := r.Summary
			return errors.Join(
				unless(s["mean_crashes"] == 4, "%v crashes; all of region A (4 machines) must fail", s["mean_crashes"]),
				unless(s["mean_slo_viol_s"] > 0, "no SLO violation; the survivors were never stressed"))
		}},
	{"chaos", "Invariants under seeded control-plane and crash fault schedules",
		sized(1, 2, chaosRun), func(r *Result) error {
			s := r.Summary
			return errors.Join(
				unless(s["runs"] == 9, "%v runs, want 3 apps × 3 seeds", s["runs"]),
				unless(s["msg_faults"] > 0 && s["crashes"] > 0, "%v message faults, %v crashes; the harness is vacuous", s["msg_faults"], s["crashes"]),
				unless(s["migrations"] > 0, "no elasticity action executed under chaos"))
		}},
	{"fig10", "Media Service: latency and fleet size per elasticity period",
		sized(fig10Size{clients: 48, joinMu: 100 * sim.Second, joinSigma: 40 * sim.Second, stay: 100 * sim.Second,
			leaveMu: 380 * sim.Second, leaveSigma: 40 * sim.Second, total: 520 * sim.Second,
			periods: []sim.Duration{20 * sim.Second, 40 * sim.Second, 60 * sim.Second}},
			fig10Size{clients: 128, joinMu: 2 * sim.Minute, joinSigma: 90 * sim.Second, stay: 4 * sim.Minute,
				leaveMu: 19 * sim.Minute, leaveSigma: 90 * sim.Second, total: 26 * sim.Minute,
				periods: []sim.Duration{60 * sim.Second, 120 * sim.Second, 180 * sim.Second}}, fig10),
		func(r *Result) error {
			s, short, long := r.Summary, r.Rows[0][0], r.Rows[len(r.Rows)-1][0]
			return errors.Join(
				unless(s["peak_servers_"+short] > 4, "the %s run's fleet never grew past 4 servers", short),
				unless(s["final_servers_"+short] <= s["final_servers_"+long], "%s period ended on %v servers, %s on %v; paper: a shorter period reclaims faster",
					short, s["final_servers_"+short], long, s["final_servers_"+long]),
				unless(s["mean_latency_ms_"+short] <= 1.15*s["mean_latency_ms_"+long], "%s period's latency %.1f ms, %s's %.1f ms; paper: the shortest period has the best latency",
					short, s["mean_latency_ms_"+short], long, s["mean_latency_ms_"+long]))
		}},
	{"fig11a", "Halo: interaction rule vs frequency-based default rule",
		sized(haloQuick, haloFull, fig11a), func(r *Result) error {
			d, i := r.Summary["p95_ms_def-rule"], r.Summary["p95_ms_inter-rule"]
			return unless(d > i, "def-rule p95 %.1f ms, inter-rule %.1f ms; paper: inter-rule avoids remote messaging from the start", d, i)
		}},
	{"fig11b", "Halo: per-client latency, first round, default rule",
		sized(haloQuick, haloFull, fig11b), func(r *Result) error {
			n, ratio := r.Summary["misplaced_clients"], r.Summary["misplaced_early_over_late"]
			return unless(n > 0 && ratio >= 1.1, "%v misplaced clients, early/late %.2f; paper: misplaced clients run ~35%% higher until redistribution", n, ratio)
		}},
	{"fig11c", "Halo: router CPU balance and GEM count",
		sized(haloQuick, haloFull, fig11c), func(r *Result) error {
			s := r.Summary
			f1, f4 := s["final_ms_1gem"], s["final_ms_4gem"]
			return errors.Join(
				unless(s["peak_ms_1gem"] >= 1.5*f1, "peak %.1f ms, final %.1f ms; paper: latency spikes while router servers saturate", s["peak_ms_1gem"], f1),
				unless(f4 <= 1.3*f1 && f1 <= 1.3*f4, "final %.1f ms with 1 GEM, %.1f ms with 4; paper: GEM count has small impact", f1, f4),
				unless(s["router_servers_1gem"] >= 4, "routers on %v servers; the balance rule must spread them", s["router_servers_1gem"]))
		}},
	{"fig5", "Metadata Server: reserve+colocate vs default rule vs none",
		fig5, func(r *Result) error {
			resCol, defRule := r.Summary["rescol_vs_norule_reduction"], r.Summary["defrule_vs_norule_reduction"]
			return unless(resCol >= 25 && defRule <= resCol/2, "res-col-rule %.1f%%, def-rule %.1f%% below no-rule; paper: ~40%% and indistinguishable", resCol, defRule)
		}},
	{"fig6a", "PageRank converged computation time: PLASMA vs Orleans (16 vCPU)",
		sized(prQuick, prFull, fig6a), func(r *Result) error {
			imp := r.Summary["plasma_improvement_pct"]
			return unless(imp > 2, "PLASMA converges %.1f%% faster than Orleans; paper: ~24%%", imp)
		}},
	{"fig6b", "PageRank dynamic allocation: PLASMA vs conservative provisioning",
		sized(prQuick, prFull, fig6b), func(r *Result) error {
			s := r.Summary
			ratio := s["converged_ms_plasma"] / s["converged_ms_conservative"]
			return unless(s["servers_plasma"] < s["servers_conservative"] && ratio <= 2.5, "PLASMA on %v servers at %.2f× the time of conservative's %v; paper: ~same time on 12 of 16",
				s["servers_plasma"], ratio, s["servers_conservative"])
		}},
	{"fig7a", "PageRank per-iteration time: PLASMA vs Mizan, with/without elasticity",
		sized(prQuick, prFull, fig7a), func(r *Result) error {
			p, m := r.Summary["gain_pct_plasma"], r.Summary["gain_pct_mizan"]
			return unless(p > m && p > 0, "PLASMA gains %.1f%%, Mizan %.1f%%; paper: 24%% vs ≤3%%", p, m)
		}},
	{"fig7bc", "PageRank per-server CPU% and worker distribution over redistributions",
		sized(prQuick, prFull, fig7bc), func(r *Result) error {
			s := r.Summary
			return unless(s["cpu_imbalance_last"] < s["cpu_imbalance_first"] && s["migrations"] > 0, "CPU imbalance %.3f -> %.3f after %v migrations; paper: servers converge into the [60,80] band",
				s["cpu_imbalance_first"], s["cpu_imbalance_last"], s["migrations"])
		}},
	{"fig8", "PageRank dynamic resource allocation traces",
		sized(prQuick, prFull, fig8), func(r *Result) error {
			s := r.Summary
			return unless(s["speedup"] >= 1.5 && s["final_servers"] >= 3 && s["scaleouts"] > 0, "speedup %.2f on %v servers after %v scale-outs; paper: iterations improve round by round as servers arrive",
				s["speedup"], s["final_servers"], s["scaleouts"])
		}},
	{"fig9", "E-Store latency: PLASMA rules vs in-app elasticity vs none",
		sized(fig9Size{roots: 16, clients: 24, duration: 120 * sim.Second, period: 20 * sim.Second},
			fig9Size{roots: 40, clients: 48, duration: 220 * sim.Second, period: 30 * sim.Second}, fig9),
		func(r *Result) error {
			s := r.Summary
			none, plasma, inapp := s["tail_ms_none"], s["tail_ms_plasma"], s["tail_ms_in-app"]
			return errors.Join(
				unless(plasma < none && inapp < none, "tails: plasma %.1f, in-app %.1f, none %.1f ms; paper: both clearly below none", plasma, inapp, none),
				unless(plasma/inapp >= 0.5 && plasma/inapp <= 1.5, "plasma/in-app ratio %.2f; paper: PLASMA E-Store ≈ in-app", plasma/inapp))
		}},
	{"plan_halo", "Halo latency with skewed sessions under affinity-scored balancing",
		sized(haloQuick, haloFull, planHalo), func(r *Result) error {
			mean, final, settle := r.Summary["mean_ms"], r.Summary["final_ms"], r.Summary["settle_s"]
			return unless(mean > 0 && final > 0 && mean < 79.0 && settle <= 20, "mean %.1f ms, final %.1f ms, settled at %.0f s; load-only targeting measured 79.0 ms and 20 s at seed 1",
				mean, final, settle)
		}},
	{"plan_pagerank", "PageRank convergence under cpu+mem bands",
		sized(prQuick, prFull, planPagerank), func(r *Result) error {
			conv, migs := r.Summary["converged_ms"], r.Summary["migrations"]
			return unless(conv > 0 && conv < 36100 && migs < 3699, "converged in %.0f ms after %.0f migrations; the greedy loop's cross-axis bounce took 36,100 ms and 3,699 at seed 1",
				conv, migs)
		}},
	{"scale", "GEM scalability on synthetic million-actor fleets (beyond Fig. 11c)",
		sized([]int{1000, 4000}, []int{10_000, 100_000, 1_000_000}, scale), func(r *Result) error {
			var errs []error
			for _, k := range append(r.keys("migrations_"), r.keys("spare_filled_")...) {
				errs = append(errs, unless(r.Summary[k] > 0, "%s = %v; every cell must balance load into the spares", k, r.Summary[k]))
			}
			return errors.Join(errs...)
		}},
	{"stream_chaos", "Skew shift during a GEM crash (chaos-composed stream)",
		sized(streamQuick, streamFull, streamChaos), func(r *Result) error {
			fails, rec := r.Summary["ctl_fails"], r.Summary["recovered"]
			return unless(fails > 0 && rec == 1, "%v control-plane failures, recovered %v; the surviving GEM must carry the shift", fails, rec)
		}},
	{"stream_drift", "Drifting hot set: mean recovery over repeated shifts",
		sized(streamQuick, streamFull, streamDrift), func(r *Result) error {
			s, shifts := r.Summary, float64(len(strings.Fields(r.Rows[0][1])))
			p, e := s["mean_recovery_s_plasma"], s["mean_recovery_s_elasticutor"]
			return errors.Join(
				unless(s["recovered_plasma"] == shifts && s["recovered_elasticutor"] == shifts, "recovered %v (PLASMA) and %v (key repartitioner) of %v shifts",
					s["recovered_plasma"], s["recovered_elasticutor"], shifts),
				unless(p <= e, "PLASMA mean recovery %.1f s, the key repartitioner's %.1f s; Elasticutor's race, lost", p, e))
		}},
	{"stream_skew", "Skew shift recovery: PLASMA vs Elasticutor-style key repartitioning",
		sized(streamQuick, streamFull, streamSkew), func(r *Result) error {
			s := r.Summary
			p, e := s["recovery_s_plasma"], s["recovery_s_elasticutor"]
			return errors.Join(
				unless(s["recovered_plasma"] == 1 && s["recovered_elasticutor"] == 1, "a manager never re-entered the SLO; the race is vacuous"),
				unless(s["moves_plasma"] > 0 && s["moves_elasticutor"] > 0, "a manager never moved state; the shift was not managed"),
				unless(p <= e, "PLASMA recovery %.1f s, the key repartitioner's %.1f s; Elasticutor's race, lost", p, e),
				unless(s["slo_viol_s_plasma"] <= s["slo_viol_s_elasticutor"], "PLASMA violated the SLO %.1f s, the key repartitioner %.1f s",
					s["slo_viol_s_plasma"], s["slo_viol_s_elasticutor"]))
		}},
	{"stream_spike", "Window spike: warm-pool scale-out vs fixed-fleet repartitioning",
		sized(streamQuick, streamFull, streamSpike), func(r *Result) error {
			s := r.Summary
			p, e := s["recovery_s_plasma"], s["recovery_s_elasticutor"]
			return errors.Join(
				unless(s["scale_outs_plasma"] > 0 && s["scale_outs_elasticutor"] == 0, "scale-outs: PLASMA %v, fixed fleet %v; only PLASMA can add machines",
					s["scale_outs_plasma"], s["scale_outs_elasticutor"]),
				// The quick spike lasts 18 s; PLASMA recovers while it is still on.
				unless(p < e && p < 18, "PLASMA recovery %.1f s, the fixed fleet's %.1f s; scale-out must recover inside the spike", p, e))
		}},
	{"table1", "Applications implemented with PLASMA (rule inventory)",
		table1, func(r *Result) error {
			errs := []error{unless(len(r.Rows) == 9 && r.Summary["total_rules"] == 19, "%d applications, %v rules; Table 1 lists 9 with 19 rules", len(r.Rows), r.Summary["total_rules"])}
			for _, row := range r.Rows {
				rules, _ := strconv.Atoi(row[1])
				errs = append(errs, unless(row[3] == "yes" && rules > 0 && rules < 10, "%s: %s rules, compiles %q; paper: <10 rules per application", row[0], row[1], row[3]))
			}
			return errors.Join(errs...)
		}},
	{"table3", "Normalized EPR overhead (chat room microbenchmark)",
		sized(30, 200, table3), func(r *Result) error {
			w := r.Summary["worst_overhead"]
			return unless(w > 0 && w <= 0.023, "worst overhead %.2f%%; paper: at most 2.3%%", w*100)
		}},
}

// IDs returns the experiment ids in table order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id, fills the result's kernel-effort
// counters (EventsFired, PeakQueue), and checks its claim.
func Run(id string, cfg Config) (*Result, error) {
	i := sort.Search(len(table), func(i int) bool { return table[i].id >= id })
	if i == len(table) || table[i].id != id {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return table[i].exec(cfg, &simTracker{}), nil
}

// exec is Run on the record tr.
func (e experiment) exec(cfg Config, tr *simTracker) *Result {
	cfg.stats = tr
	if cfg.Inputs == nil {
		cfg.Inputs = &Inputs{}
	}
	res := &Result{ID: e.id, Title: e.title, Summary: map[string]float64{}}
	e.run(cfg, res)
	res.EventsFired, res.PeakQueue = tr.totals()
	slices.SortFunc(tr.violations, func(a, b violation) int {
		return cmp.Or(cmp.Compare(a.period, b.period), strings.Compare(a.line, b.line))
	})
	lines := make([]string, len(tr.violations))
	for i, v := range tr.violations {
		lines[i] = v.line
	}
	res.Claim = errors.Join(e.claim(res), unless(len(lines) == 0, "%s", strings.Join(lines, "\n")))
	return res
}

func ms(x float64) string { return fmt.Sprintf("%.1f ms", x) }

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x) }
