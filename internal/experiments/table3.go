package experiments

import (
	"fmt"

	"plasma/internal/apps/chatroom"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Table3 reproduces the EPR overhead measurement of §5.2: the chat room
// microbenchmark on one instance with {8,16,32} users on m1.small ("s") and
// m1.medium ("m"), reporting the execution time with profiling normalized
// to the vanilla runtime. The paper observes at most 2.3% overhead.
func Table3(cfg Config) *Result {
	r := newResult("table3", "Normalized EPR overhead (chat room microbenchmark)")
	r.Header = []string{"Setup", "Vanilla", "Profiled", "Normalized"}

	posts := 30
	if cfg.Full {
		posts = 200
	}

	run := func(inst cluster.InstanceType, users int, profiled bool) sim.Duration {
		w := cfg.world(cfg.seed(), 1, inst)
		if !profiled {
			w.RT.SetProfiler(nil)
		}
		app := chatroom.Build(w.RT, 0, users)
		app.DrivePosts(w.K, 0, posts, 5*sim.Millisecond)
		w.K.RunUntilIdle()
		return sim.Duration(w.K.Now())
	}

	worst := 0.0
	for _, inst := range []cluster.InstanceType{cluster.M1Small, cluster.M1Medium} {
		suffix := "s"
		if inst.Name == "m1.medium" {
			suffix = "m"
		}
		for _, users := range []int{8, 16, 32} {
			vanilla := run(inst, users, false)
			profiled := run(inst, users, true)
			norm := float64(profiled) / float64(vanilla)
			if norm-1 > worst {
				worst = norm - 1
			}
			setup := fmt.Sprintf("%d-%s", users, suffix)
			r.addRow(setup, vanilla.String(), profiled.String(), fmt.Sprintf("%.3f", norm))
			r.Summary["norm_"+setup] = norm
		}
	}
	r.Summary["worst_overhead"] = worst
	if worst <= 0.023 {
		r.notef("worst-case overhead %.1f‰ — within the paper's 2.3%% bound", worst*1000)
	} else {
		r.notef("worst-case overhead %.2f%% exceeds the paper's 2.3%% bound", worst*100)
	}
	return r
}
