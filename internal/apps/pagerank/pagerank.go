// Package pagerank is the distributed PageRank application of §2.1 and §5.4
// (Figs. 6-8): Worker actors each own one graph partition, compute on it
// every iteration (CPU cost proportional to the partition's edges), exchange
// boundary data with the other workers, and synchronize through a
// Coordinator actor — bulk-synchronous execution where the slowest worker
// bounds every iteration.
//
// Partitions come from the graph package's METIS-like partitioner: vertex
// counts are balanced but edge counts (and therefore compute) are skewed,
// which is the imbalance PLASMA's balance rule corrects by migrating whole
// Worker actors between servers. The Mizan baseline instead migrates
// vertices *between workers*, equalizing workers without fixing the
// per-server skew from random worker placement.
package pagerank

import (
	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/sim"
)

// PolicySrc is the §3.3 PageRank rule, verbatim.
const PolicySrc = `
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Worker}, cpu);
`

// Schema declares the application's actor classes.
func Schema() *epl.Schema {
	return epl.NewSchema(
		epl.Class("Worker", []string{"iterate", "boundary"}, nil),
		epl.Class("Coordinator", []string{"done"}, nil),
	)
}

// boundaryBytesPerEdge sizes the per-iteration boundary exchange.
const boundaryBytesPerEdge = 4

// Config sizes one PageRank deployment.
type Config struct {
	Graph *graph.Graph
	Parts []int // vertex -> partition assignment
	K     int   // number of workers/partitions

	// PerEdgeCost is CPU time per edge per iteration.
	PerEdgeCost sim.Duration
	// StatePerVertex sizes worker actor state (drives migration cost).
	StatePerVertex int64
	// HeteroSpread adds per-partition compute heterogeneity: each
	// partition's work is scaled by a factor drawn uniformly from
	// [1-spread, 1+spread]. The paper observes per-server CPU "diverging
	// greatly despite the even partitioning performed by METIS" (Fig. 7b):
	// locality, hub concentration, and convergence rates make equal-sized
	// partitions cost unequal work. 0 disables.
	HeteroSpread float64
	// SyncOverhead is per-iteration non-compute time (barrier, boundary
	// application, framework bookkeeping) between iterations. Real BSP
	// systems spend a sizable fraction of each iteration here, which is
	// what keeps converged CPU utilization inside the rule's band rather
	// than at 100%.
	SyncOverhead sim.Duration
	// Iterations to run (0 = unlimited until Stop).
	Iterations int
}

func (c Config) withDefaults() Config {
	if c.PerEdgeCost == 0 {
		c.PerEdgeCost = 2 * sim.Microsecond
	}
	if c.StatePerVertex == 0 {
		c.StatePerVertex = 64
	}
	return c
}

// App is one deployed PageRank computation.
type App struct {
	RT  *actor.Runtime
	Cfg Config

	Coord   actor.Ref
	Workers []actor.Ref

	// Vertices and Edges are per-worker partition sizes; Mizan-style vertex
	// migration rebalances these between workers at iteration boundaries.
	Vertices []int64
	Edges    []int64
	// Mult is each partition's compute-heterogeneity multiplier (hub
	// concentration, convergence rate, locality — Fig. 7b's divergence).
	// It is a property of the partition's hot vertices, which per-vertex
	// migration schemes deliberately avoid moving, so Mizan cannot
	// equalize it; PLASMA moves the whole actor, taking it along.
	Mult []float64

	// IterationTimes records each completed iteration's wall time.
	IterationTimes []sim.Duration
	// OnIteration, when set, observes each completed iteration.
	OnIteration func(iter int, d sim.Duration)
	// Done reports whether the configured iteration count completed.
	Done bool

	iter      int
	pending   int
	iterStart sim.Time
	lastDone  sim.Time // completion instant of the previous iteration
	// extraDelay is added before the next iteration starts (Mizan vertex
	// migration pauses).
	extraDelay sim.Duration
}

type coordState struct{ app *App }

func (c *coordState) Receive(ctx *actor.Context, msg actor.Message) {
	app := c.app
	switch msg.Method {
	case "start":
		app.startIteration(ctx)
	case "done":
		ctx.Use(50 * sim.Microsecond)
		app.pending--
		if app.pending > 0 {
			return
		}
		// Completion-to-completion time: inter-iteration pauses (barrier
		// overhead, vertex-migration stalls) are part of what users see as
		// iteration time.
		ref := app.lastDone
		if app.iter == 0 {
			ref = app.iterStart
		}
		d := sim.Duration(ctx.Now() - ref)
		app.lastDone = ctx.Now()
		app.IterationTimes = append(app.IterationTimes, d)
		if app.OnIteration != nil {
			app.OnIteration(app.iter, d)
		}
		app.iter++
		if app.Cfg.Iterations > 0 && app.iter >= app.Cfg.Iterations {
			app.Done = true
			return
		}
		delay := app.extraDelay + app.Cfg.SyncOverhead
		app.extraDelay = 0
		if delay > 0 {
			ctx.SendAfter(delay, ctx.Self(), "start", nil, 16)
			return
		}
		app.startIteration(ctx)
	}
}

func (app *App) startIteration(ctx *actor.Context) {
	app.pending = app.Cfg.K
	app.iterStart = ctx.Now()
	for _, w := range app.Workers {
		ctx.Send(w, "iterate", nil, 16)
	}
}

type workerState struct {
	app *App
	idx int
}

func (w *workerState) Receive(ctx *actor.Context, msg actor.Message) {
	app := w.app
	switch msg.Method {
	case "init":
		ctx.SetMemSize(app.Vertices[w.idx] * app.Cfg.StatePerVertex)
	case "iterate":
		edges := app.Edges[w.idx]
		ctx.Use(sim.Duration(float64(edges) * app.Mult[w.idx] * float64(app.Cfg.PerEdgeCost)))
		ctx.SetMemSize(app.Vertices[w.idx] * app.Cfg.StatePerVertex)
		// Boundary exchange: split the partition's boundary volume across
		// the other workers.
		if app.Cfg.K > 1 {
			total := edges * boundaryBytesPerEdge
			per := total / int64(app.Cfg.K-1)
			for j, other := range app.Workers {
				if j == w.idx {
					continue
				}
				ctx.Send(other, "boundary", nil, per)
			}
		}
		ctx.Send(app.Coord, "done", nil, 16)
	case "boundary":
		// Applying remote rank contributions is cheap relative to compute.
		ctx.Use(sim.Duration(msg.Size/64) * sim.Microsecond)
	}
}

// Build partitions the graph's work across cfg.K workers and deploys them
// round-robin over the given servers (nil = the runtime picks via the
// placement hook). Call Start to begin iterating.
func Build(k *sim.Kernel, rt *actor.Runtime, cfg Config, servers []cluster.MachineID) *App {
	cfg = cfg.withDefaults()
	app := &App{RT: rt, Cfg: cfg}
	app.Vertices = make([]int64, cfg.K)
	app.Edges = make([]int64, cfg.K)
	app.Mult = make([]float64, cfg.K)
	for i := range app.Mult {
		app.Mult[i] = 1
	}
	if cfg.Graph != nil && cfg.Parts != nil {
		for v, p := range cfg.Parts {
			app.Vertices[p]++
			app.Edges[p] += int64(len(cfg.Graph.Out[v]))
		}
	}
	if cfg.HeteroSpread > 0 {
		for i := range app.Mult {
			app.Mult[i] = 1 + cfg.HeteroSpread*(2*k.Rand().Float64()-1)
		}
	}

	coordSrv := cluster.MachineID(0)
	if len(servers) > 0 {
		coordSrv = servers[0]
	}
	app.Coord = rt.SpawnOn("Coordinator", &coordState{app: app}, coordSrv)
	rt.Pin(app.Coord) // the barrier stays put

	boot := actor.NewClient(rt, coordSrv)
	for i := 0; i < cfg.K; i++ {
		ws := &workerState{app: app, idx: i}
		var ref actor.Ref
		if len(servers) > 0 {
			ref = rt.SpawnOn("Worker", ws, servers[i%len(servers)])
		} else {
			ref = rt.Spawn("Worker", ws, app.Coord)
		}
		boot.Send(ref, "init", nil, 1)
		app.Workers = append(app.Workers, ref)
	}
	return app
}

// Start kicks off iteration 0 from a client at the coordinator's site.
func (app *App) Start(k *sim.Kernel) {
	cl := actor.NewClient(app.RT, app.RT.ServerOf(app.Coord))
	cl.Send(app.Coord, "start", nil, 16)
}

// ConvergedTime summarizes the mean of the last third of iteration times —
// the "converged computation time" of Fig. 6.
func (app *App) ConvergedTime() sim.Duration {
	n := len(app.IterationTimes)
	if n == 0 {
		return 0
	}
	start := n * 2 / 3
	var sum sim.Duration
	for _, d := range app.IterationTimes[start:] {
		sum += d
	}
	return sum / sim.Duration(n-start)
}

// Mizan is the §5.4 baseline: after every iteration it pairs the slowest
// and fastest workers by modeled compute time and migrates vertices (and
// their edges) between them, pausing the computation for the transfer.
// Worker actors never change servers, so per-server skew from placement
// remains — matching the paper's observation that Mizan's elasticity
// recovers only a few percent.
type Mizan struct {
	App *App

	MovedVertices int64
}

// Mizan's pace: one iteration closes at most mizanMaxFrac of the gap
// between the slowest and fastest worker, and each moved vertex stalls the
// next iteration by mizanPausePerVertex.
const (
	mizanMaxFrac        = 0.1
	mizanPausePerVertex = 40 * sim.Microsecond
)

// Attach hooks the migrator into the app's iteration callback chain.
func (mz *Mizan) Attach() {
	prev := mz.App.OnIteration
	mz.App.OnIteration = func(iter int, d sim.Duration) {
		if prev != nil {
			prev(iter, d)
		}
		mz.rebalance()
	}
}

func (mz *Mizan) rebalance() {
	app := mz.App
	// Pair by modeled response time (edges x multiplier), like Mizan's
	// per-superstep statistics, but migrate plain vertices: the expensive
	// hub vertices stay put (migrating them is what Mizan's planner
	// explicitly avoids), so only the structural component moves.
	slow, fast := 0, 0
	respOf := func(i int) float64 { return float64(app.Edges[i]) * app.Mult[i] }
	for i := range app.Edges {
		if respOf(i) > respOf(slow) {
			slow = i
		}
		if respOf(i) < respOf(fast) {
			fast = i
		}
	}
	gap := app.Edges[slow] - app.Edges[fast]
	if gap <= 0 || slow == fast {
		return
	}
	moveEdges := int64(float64(gap) / 2 * mizanMaxFrac)
	if moveEdges <= 0 {
		return
	}
	// Move vertices proportionally to the edge volume moved.
	var avgDeg float64 = 1
	if app.Vertices[slow] > 0 {
		avgDeg = float64(app.Edges[slow]) / float64(app.Vertices[slow])
	}
	moveVerts := int64(float64(moveEdges) / avgDeg)
	if moveVerts < 1 {
		moveVerts = 1
	}
	if moveVerts > app.Vertices[slow]-1 {
		moveVerts = app.Vertices[slow] - 1
	}
	app.Edges[slow] -= moveEdges
	app.Edges[fast] += moveEdges
	app.Vertices[slow] -= moveVerts
	app.Vertices[fast] += moveVerts
	mz.MovedVertices += moveVerts
	app.extraDelay += sim.Duration(moveVerts) * mizanPausePerVertex
}
