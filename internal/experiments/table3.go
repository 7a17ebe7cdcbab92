package experiments

import (
	"fmt"

	"plasma/internal/apps/chatroom"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/sim"
)

// table3 reproduces the EPR overhead measurement of §5.2: the chat room
// microbenchmark on one instance with {8,16,32} users on m1.small ("s") and
// m1.medium ("m"), reporting the execution time with profiling normalized
// to the vanilla runtime, each user sending posts messages.
func table3(cfg Config, posts int, r *Result) {
	r.Header = []string{"Setup", "Vanilla", "Profiled", "Normalized"}

	arm := func(inst cluster.InstanceType, users int, profiled bool) sim.Duration {
		var app *chatroom.App
		out := run(cfg, cfg.Seed, scenario{
			machines: 1, inst: inst,
			build: func(w *core.World) {
				if !profiled {
					w.RT.SetProfiler(nil)
				}
				app = chatroom.Build(w.RT, 0, users)
			},
			load: func(w *core.World) { app.DrivePosts(w.K, 0, posts, 5*sim.Millisecond) },
			// A closed job with no completion flag: it is over when the queue
			// drains, long before the deadline.
			done:    func() bool { return false },
			horizon: 60 * sim.Minute,
		})
		return sim.Duration(out.K.Now())
	}

	worst := 0.0
	for _, inst := range []cluster.InstanceType{cluster.M1Small, cluster.M1Medium} {
		suffix := "s"
		if inst.Name == "m1.medium" {
			suffix = "m"
		}
		for _, users := range []int{8, 16, 32} {
			vanilla := arm(inst, users, false)
			profiled := arm(inst, users, true)
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
}
