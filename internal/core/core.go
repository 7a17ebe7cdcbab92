// Package core is PLASMA's public facade and the one place its layers are
// wired: a World is simulator kernel, cluster, actor runtime and profiler
// (EPR), plus — once asked for — the elasticity management runtime (EMR)
// and a chaos injector.
//
// An application hands NewSystem policy source and, optionally, a schema:
//
//	sys, err := core.NewSystem(core.Options{
//	    Policy:   `server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`,
//	    Machines: 8,
//	})
//	...
//	w := sys.RT.SpawnOn("Worker", myBehavior, 0)
//	sys.Start()
//	sys.Run(5 * sim.Minute)
//
// A harness makes the two calls NewSystem makes, sizes and tracer explicit:
//
//	w := core.NewWorld(seed, 8, cluster.M5Large, tracer)
//	app := pagerank.Build(w.K, w.RT, appCfg, placement)
//	w.Manage(epl.MustParse(pagerank.PolicySrc), emr.Config{Period: sim.Second}).Start()
package core

import (
	"fmt"

	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
)

// Options configures a System.
type Options struct {
	// Policy is EPL source (required).
	Policy string
	// Schema optionally declares the application's actor classes for
	// semantic checking of the policy.
	Schema *epl.Schema
	// Seed drives all randomness (default 1).
	Seed int64
	// Machines is the initial fleet size (default 4).
	Machines int
	// Instance is the machine flavor (default cluster.M1Small).
	Instance cluster.InstanceType
	// EMR tunes the elasticity management runtime.
	EMR emr.Config
}

// System is a World whose policy came from source: NewSystem parsed and
// checked it, and Warnings carries what the checker had to say.
type System struct {
	*World

	// Warnings holds the policy compiler's conflict diagnostics (§4.3).
	Warnings []epl.Warning
}

// NewSystem compiles the policy, checks it against the schema, and builds
// the full stack. The elasticity manager is created but not started; spawn
// your actors, then call Start.
func NewSystem(opts Options) (*System, error) {
	if opts.Policy == "" {
		return nil, fmt.Errorf("core: empty policy")
	}
	pol, err := epl.Parse(opts.Policy)
	if err != nil {
		return nil, err
	}
	warns, err := epl.Check(pol, opts.Schema)
	if err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Machines == 0 {
		opts.Machines = 4
	}
	if opts.Instance.Name == "" {
		opts.Instance = cluster.M1Small
	}
	if opts.EMR.InstanceType.Name == "" {
		opts.EMR.InstanceType = opts.Instance
	}

	w := NewWorld(opts.Seed, opts.Machines, opts.Instance, nil)
	w.Manage(pol, opts.EMR)
	return &System{World: w, Warnings: warns}, nil
}
