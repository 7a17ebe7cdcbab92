package experiments

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/core"
	"plasma/internal/emr"
	"plasma/internal/sim"
)

// This file is the beyond-the-paper scalability family: Fig. 11c asked how
// GEM count affects balancing on 64 servers; this experiment asks the same
// question at fleet sizes the AWS testbed could not reach (10k, 100k and 1M
// actors in -full).

// scaleCycle is the synthetic workers' self-message period; scalePeriod the
// elasticity period (short so a quick run still spans several decisions).
const (
	scaleCycle  = 500 * sim.Millisecond
	scalePeriod = sim.Second
)

// scalePolicy is a plain CPU band: hot servers shed Workers, idle spares
// receive them.
const scalePolicy = `server.cpu.perc > 70 or server.cpu.perc < 30 => balance({Worker}, cpu);`

// scaleResult is one seeded trial's outcome.
type scaleResult struct {
	stats       emr.Stats
	spareFilled int // spare servers that received at least one Worker
}

// scaleTrial runs a size-actor synthetic fleet: ~128 Workers per server
// placed round-robin on the used servers, the last eighth of the cluster
// left as idle spares, and the first eighth's residents running double duty
// so their servers breach the upper band. Every Worker self-messages once
// per cycle with its start staggered across the cycle, so load is spread
// and the event queue never sees the whole fleet at one instant.
func scaleTrial(cfg Config, seed int64, size, gems int) scaleResult {
	servers := size / 128
	if servers < 8 {
		servers = 8
	}
	spares := servers / 8
	if spares < 1 {
		spares = 1
	}
	used := servers - spares
	hot := spares

	mkWorker := func(cost sim.Duration) actor.Behavior {
		return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(cost)
			ctx.SendAfter(scaleCycle-cost, ctx.Self(), "work", nil, 16)
		})
	}
	// ~0.3% duty per cold Worker: 128/server lands mid-band (~38%); the hot
	// servers' double-duty residents push theirs past the 70% upper bound.
	coldB := mkWorker(1500 * sim.Microsecond)
	hotB := mkWorker(3 * sim.Millisecond)

	out := run(cfg, seed, scenario{
		machines: servers, inst: cluster.M1Small,
		build: func(w *core.World) {
			cl := w.Client(0)
			for i := 0; i < size; i++ {
				srv := cluster.MachineID(i % used)
				b := coldB
				if int(srv) < hot {
					b = hotB
				}
				ref := w.RT.SpawnOn("Worker", b, srv)
				kick := sim.Duration(i%int(scaleCycle/sim.Millisecond)+1) * sim.Millisecond
				w.K.At(sim.Time(kick), func() { cl.Send(ref, "work", nil, 16) })
			}
		},
		policy:  scalePolicy,
		emr:     emr.Config{Period: scalePeriod, NumGEMs: gems},
		horizon: 4*scalePeriod + scalePeriod/2,
	})

	filled := map[cluster.MachineID]bool{}
	out.RT.ForEachActor(func(info actor.Info) {
		if int(info.Server) >= used {
			filled[info.Server] = true
		}
	})
	return scaleResult{stats: out.M.Stats, spareFilled: len(filled)}
}

// scale sweeps GEM count across fleet sizes: 1k and 4k actors quick; 10k,
// 100k and 1M actors in -full. Each (size, gems) cell averages three seeded
// trials, run in seed order, except the million-actor cells, which run one
// seed: they take 46 s of -full scale's 48 s on a 2-CPU VM, and three seeds
// would triple that.
func scale(cfg Config, sizes []int, r *Result) {
	r.Header = []string{"Actors", "GEMs", "Seeds", "Migrations", "Denied", "Spares filled"}
	for _, size := range sizes {
		for _, gems := range []int{1, 2, 4} {
			seeds := 3
			if size >= 1_000_000 {
				seeds = 1
			}
			var mig, den, spare float64
			for seed := cfg.Seed; seed < cfg.Seed+int64(seeds); seed++ {
				t := scaleTrial(cfg, seed, size, gems)
				mig += float64(t.stats.ExecutedMigrations)
				den += float64(t.stats.DeniedAdmissions)
				spare += float64(t.spareFilled)
			}
			n := float64(seeds)
			mig, den, spare = mig/n, den/n, spare/n
			r.addRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", gems), fmt.Sprintf("%d", seeds),
				fmt.Sprintf("%.1f", mig), fmt.Sprintf("%.1f", den), fmt.Sprintf("%.1f", spare))
			key := fmt.Sprintf("%d_%dgem", size, gems)
			r.Summary["migrations_"+key] = mig
			r.Summary["denied_"+key] = den
			r.Summary["spare_filled_"+key] = spare
		}
	}
}
