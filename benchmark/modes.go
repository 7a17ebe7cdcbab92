package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of values by the exclusive method, which is what Python's
// statistics.quantiles(values, n=4) computes and the driver uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // the i-th of the three cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// aaVerdict judges one metric of one workload over the sets of an A/A
// comparison. With one seed for every set the simulated statistics must
// repeat exactly and only host metrics are held to their bounds; with a
// seed per set, as the driver runs it, every metric is held to its bound.
func aaVerdict(d metric, values []float64, varySeed bool) (ok bool, why string) {
	if !d.Host && !varySeed {
		for _, v := range values[1:] {
			if v != values[0] {
				return false, "differs between sets of one seed"
			}
		}
		return true, "exact"
	}
	if sp := spread(values); sp > d.Bound {
		return false, fmt.Sprintf("spread %.1f%% over bound %.0f%%", 100*sp, 100*d.Bound)
	}
	return true, ""
}

// runAA runs n full sets of every workload, rotating which workload a set
// starts with, and compares the sets with each other.
func runAA(n int, seed int64, seconds float64, varySeed bool, outDir string) int {
	type cell struct {
		metrics map[string][]float64
		failed  []int64
		digests []string
	}
	cells := map[string]*cell{}
	for _, wl := range workloads {
		cells[wl.Name] = &cell{metrics: map[string][]float64{}}
	}
	bad := 0
	var hdr header
	for set := 0; set < n; set++ {
		s := seed
		if varySeed {
			s += int64(set)
		}
		for i := range workloads {
			wl := workloads[(i+set)%len(workloads)]
			res, err := spawn(wl, s, seconds, false, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "set %d seed %d %s: setup %.2fs run %.2fs digest %s\n",
				set+1, s, wl.Name, res.Metrics["setup_s"], res.Metrics["run_wall_s"], res.Digest)
			if !res.Correct {
				bad++
				fmt.Printf("FAIL %s set %d: %v\n", wl.Name, set+1, res.Problems)
			}
			c := cells[wl.Name]
			for _, d := range endToEnd {
				c.metrics[d.Name] = append(c.metrics[d.Name], res.Metrics[d.Name])
			}
			c.failed = append(c.failed, res.Failed)
			c.digests = append(c.digests, res.Digest)
			hdr = res.Header
		}
	}

	mode := "one seed"
	if varySeed {
		mode = "a seed per set"
	}
	fmt.Printf("# A/A comparison: %d sets, %s, seed %d, --seconds %g\n\n", n, mode, seed, seconds)
	fmt.Printf("Machine: %d CPUs, GOMAXPROCS %d, %s, commit %s.\n\n", hdr.CPUs, hdr.GOMAXPROCS, hdr.Go, hdr.Commit)
	fmt.Println("| workload | metric | unit | q1 | median | q3 | spread | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		c := cells[wl.Name]
		for _, d := range endToEnd {
			v := c.metrics[d.Name]
			q1, med, q3 := quartiles(v)
			ok, why := aaVerdict(d, v, varySeed)
			verdict := "ok"
			if why != "" {
				verdict = why
			}
			if !ok {
				verdict = "FAIL: " + why
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				wl.Name, d.Name, d.Unit, q1, med, q3, 100*spread(v), 100*d.Bound, verdict)
		}
		if !varySeed {
			for i := range c.digests {
				if c.digests[i] != c.digests[0] || c.failed[i] != c.failed[0] {
					fmt.Printf("| %s | sim_digest | | | | | | | FAIL: set %d has %s (%d failed), set 1 %s (%d failed) |\n",
						wl.Name, i+1, c.digests[i], c.failed[i], c.digests[0], c.failed[0])
					bad++
				}
			}
			fmt.Printf("| %s | sim_digest | | | %s | | | exact | ok: %d failed ops in every set |\n", wl.Name, c.digests[0], c.failed[0])
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d checks failed.\n", bad)
		return 1
	}
	fmt.Println("\nAll checks passed.")
	return 0
}

// check is one line of the self-check's verdict.
type check struct {
	Workload, What string
	Got            float64
	Want           string
	OK             bool
}

// selfcheckOf judges one workload from its full-scale, half-scale and
// traced passes: the metrics must follow a known change in work, and the
// workload must load the layer it was chosen for.
func selfcheckOf(name string, full, half, traced *passResult) []check {
	between := func(what string, got, lo, hi float64) check {
		return check{name, what, got, fmt.Sprintf("%.2f to %.2f", lo, hi), got >= lo && got <= hi}
	}
	atLeast := func(what string, got, min float64) check {
		return check{name, what, got, fmt.Sprintf("at least %.2f", min), got >= min}
	}
	atMost := func(what string, got, max float64) check {
		return check{name, what, got, fmt.Sprintf("at most %.2f", max), got <= max}
	}
	out := []check{
		between("sim.events, half scale over full", float64(half.Events)/float64(full.Events), 0.4, 0.6),
		between("run_wall_s, half scale over full", half.Metrics["run_wall_s"]/full.Metrics["run_wall_s"], 0.4, 0.6),
		atMost("spans.overhead_pct", 100*(traced.Metrics["run_wall_s"]-full.Metrics["run_wall_s"])/full.Metrics["run_wall_s"], 15),
	}
	control := traced.Layer["emr.cpu_share"] + traced.Layer["profile.cpu_share"] + traced.Layer["epl.cpu_share"]
	switch name {
	case "fleet_control":
		out = append(out, atLeast("emr+profile+epl cpu_share", control, 0.35))
	case "media_bell":
		out = append(out, atMost("emr+profile+epl cpu_share", control, 0.10))
	case "pagerank_rebalance":
		// Spans read the clock as it is, so they are held against the
		// set-up's uncorrected seconds.
		var setup, warmup float64
		for _, s := range traced.Subs {
			setup += s.SetupRawS
			warmup += s.WarmupS
		}
		graph := traced.Layer["graph.gen_s"] + traced.Layer["graph.partition_s"]
		out = append(out, atLeast("graph seconds over set-up less warm-up", graph/(setup-warmup), 0.6))
	}
	return out
}

// runSelfcheck answers "does it measure?" for every workload.
func runSelfcheck(seed int64, outDir string) int {
	bad := 0
	fmt.Println("| workload | check | got | want | verdict |")
	fmt.Println("|---|---|---|---|---|")
	for _, wl := range workloads {
		var passes [3]*passResult
		for i, arg := range []struct {
			seconds float64
			traced  bool
		}{{runSeconds, false}, {runSeconds / 2.0, false}, {runSeconds, true}} {
			res, err := spawn(wl, seed, arg.seconds, arg.traced, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("| %s | outputs correct | | | FAIL: %v |\n", wl.Name, res.Problems)
				bad++
			}
			passes[i] = res
		}
		for _, c := range selfcheckOf(wl.Name, passes[0], passes[1], passes[2]) {
			verdict := "ok"
			if !c.OK {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.3f | %s | %s |\n", c.Workload, c.What, c.Got, c.Want, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d checks failed.\n", bad)
		return 1
	}
	fmt.Println("\nAll checks passed.")
	return 0
}
