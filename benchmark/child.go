package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// header says where and on what a result was measured.
type header struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	CPUs       int            `json:"cpus"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	SubSeeds   int            `json:"sub_seeds"`
	Sizes      map[string]int `json:"sizes"` // of one sub-seed's world
}

// passResult is what one pass of one workload reports: the child process
// prints it as JSON and the parent reads it back.
type passResult struct {
	Header    header   `json:"header"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int64    `json:"ops_attempted"`
	Failed    int64    `json:"ops_failed"`
	// Samples is how many op latencies the percentiles were taken over.
	Samples int `json:"op_samples"`
	// Digest hashes what the simulation did; SubDigests are its parts.
	Digest     string   `json:"sim_digest"`
	SubDigests []string `json:"sub_digests"`
	Events     uint64   `json:"sim_events"`
	WarmupS    float64  `json:"warmup_s"`
	// Metrics are the nine end-to-end metrics; Layer the per-layer ones,
	// which only a traced pass fills in.
	Metrics map[string]float64 `json:"metrics"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	// SpanSelf is each layer's self time over the harness's spans.
	SpanSelf map[string]float64 `json:"span_self_s,omitempty"`
	// Subs are the sub-seeds' own results, which the metrics aggregate.
	Subs []subResult `json:"subs"`
}

// revision is the commit the binary was built from; run.sh sets it when it
// builds inside a repository.
var revision = "unknown"

// runPass runs one workload's pass in this process.
func runPass(wl *spec, seed int64, seconds float64, world float64, traced bool, outDir string) (*passResult, error) {
	p := &pass{wl: wl, seed: seed, traced: traced,
		sc:    scale{Work: seconds / runSeconds, World: world},
		watch: &stopwatch{yard: newYardstick()}}
	var prof bytes.Buffer
	if traced {
		p.spans = newSpanLog()
		p.layer = map[string]float64{}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	for i := 0; i < p.subSeeds(); i++ {
		p.runSub(i)
	}
	if traced {
		pprof.StopCPUProfile()
	}

	res := &passResult{
		Header: header{
			Workload: wl.Name, Seed: seed, Seconds: seconds, Traced: traced,
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), Commit: revision,
			SubSeeds: p.subSeeds(), Sizes: p.last.sizes,
		},
		Samples: p.pooled.Count(),
		Metrics: map[string]float64{},
		Subs:    p.subs,
	}
	m := res.Metrics
	var allocB uint64
	for _, s := range p.subs {
		m["setup_s"] += s.SetupS
		m["run_wall_s"] += s.RunWallS
		m["run_cpu_s"] += s.RunCPUS
		allocB += s.RunAllocB
		m["sim_slo_viol_s"] += s.ViolS
		m["sim_server_s"] += s.ServerS
		res.Attempted += s.Attempted
		res.Failed += s.Attempted - s.Completed
		res.Events += s.Events
		res.WarmupS += s.WarmupS
		res.SubDigests = append(res.SubDigests, s.Digest)
		for _, bad := range s.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("sub-seed %d: %s", s.Seed, bad))
		}
	}
	m["run_alloc_mb"] = float64(allocB) / (1 << 20)
	m["peak_rss_mb"] = peakRSSMB()
	m["sim_op_p50_ms"] = p.pooled.Percentile(50)
	m["sim_op_p99_ms"] = p.pooled.Percentile(99)
	for _, name := range []string{"sim_op_p50_ms", "sim_op_p99_ms", "sim_slo_viol_s", "sim_server_s"} {
		if math.IsNaN(m[name]) || math.IsInf(m[name], 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("%s is %v", name, m[name]))
			m[name] = -1 // JSON has no NaN
		}
	}
	if p.encodeBad != "" {
		res.Problems = append(res.Problems, p.encodeBad)
	}
	res.Digest = digestOf(res.SubDigests, m)
	res.Correct = len(res.Problems) == 0

	if traced {
		if err := p.finishTraced(res, prof.Bytes(), outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finishTraced turns the CPU profile, the spans and the isolated timings
// into the pass's per-layer metrics.
func (p *pass) finishTraced(res *passResult, prof []byte, outDir string) error {
	samples, err := parseProfile(prof)
	if err != nil {
		return err
	}
	var sum float64
	for layer, share := range cpuShares(samples) {
		p.layer[shareName(layer)] = share
		sum += share
	}
	if math.Abs(sum-1) > 0.02 {
		res.Problems = append(res.Problems, fmt.Sprintf("cpu shares sum to %.3f", sum))
		res.Correct = false
	}
	p.layer["graph.gen_s"] = p.spans.total("graph.GeneratePowerLaw")
	p.layer["graph.partition_s"] = p.spans.total("graph.PartitionMultilevel")
	p.layer["sim.events_per_s"] = float64(res.Events) / p.spans.total("Kernel.Run")
	if planned := p.layer["emr.planned_actions"]; planned > 0 {
		p.layer["emr.useful_action_ratio"] = p.layer["emr.executed_migrations"] / planned
	}
	p.layer["runtime.heap_peak_mb"] = float64(memNow().HeapSys) / (1 << 20)
	p.isolate()

	res.Layer = map[string]float64{}
	for _, d := range perLayer {
		res.Layer[d.Name] = p.layer[d.Name]
	}
	res.SpanSelf = selfSeconds(p.spans.spans)
	return p.spans.write(filepath.Join(outDir, p.wl.Name+".spans.jsonl"))
}
