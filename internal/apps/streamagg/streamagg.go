// Package streamagg is a windowed per-key streaming aggregation — the
// workload regime (open-loop arrivals, skewed and drifting key popularity,
// tumbling windows) where Elasticutor argues executor-level key
// repartitioning beats operator-level scaling on recovery time after a
// skew shift.
//
// The same logical job is built in two deployments:
//
//   - Plasma: the key space is block-partitioned over Part actors (one
//     contiguous range each); PLASMA's EMR migrates whole partitions
//     between servers under PolicySrc. The per-key-range profile the rules
//     consume is the existing call-share condition
//     client.call(Part(p).ev).perc — no new EPL surface is needed.
//   - Elastic: one executor actor per server owns a mutable set of keys;
//     an Elasticutor-style manager (internal/baseline) moves individual
//     hot keys between executors via state handoffs priced with the same
//     serialize/transfer/deserialize model as actor migration.
//
// Events are one-way ("ev", a fixed CPU cost per event); window latency is
// probed by per-window "flush" requests whose end-to-end latency measures
// the backlog in front of the window boundary.
package streamagg

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// PolicySrc is the shipped PLASMA policy for the Plasma deployment:
// reserve capacity for a partition drawing a large share of the event
// stream on a hot server, and keep partitions CPU-balanced otherwise.
const PolicySrc = `
server.cpu.perc > 70 and
client.call(Part(p1).ev).perc > 25 =>
    reserve(p1, cpu);
server.cpu.perc > 70 or server.cpu.perc < 15 => balance({Part}, cpu);
`

// Schema declares the application's actor classes.
func Schema() *epl.Schema {
	return epl.NewSchema(
		epl.Class("Part", []string{"ev", "flush"}, nil),
	)
}

// Config sizes one deployment.
type Config struct {
	Keys        int          // key-space size
	PerKeyBytes int64        // state per key (drives migration/handoff cost)
	EvCost      sim.Duration // CPU per event
	FlushCost   sim.Duration // CPU per window flush probe
}

const flushSize = 64

// ---------------------------------------------------------------------------
// Plasma deployment: block-partitioned Part actors, managed by the EMR.

// Plasma is the PLASMA-managed deployment.
type Plasma struct {
	Parts []actor.Ref
	// Events counts processed events (all partitions).
	Events int64

	keysPerPart int
}

type partState struct {
	app *Plasma
	cfg Config
}

func (p *partState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "init":
		ctx.SetMemSize(int64(p.app.keysPerPart) * p.cfg.PerKeyBytes)
	case "ev":
		ctx.Use(p.cfg.EvCost)
		p.app.Events++
	case "flush":
		ctx.Use(p.cfg.FlushCost)
		ctx.Reply(nil, flushSize)
	}
}

// BuildPlasma deploys parts partition actors in key order, block-placed
// over the servers (partition p starts on servers[p·S/parts]), so a
// contiguous hot span lands on few servers until the EMR spreads it.
func BuildPlasma(k *sim.Kernel, rt *actor.Runtime, servers []cluster.MachineID, parts int, c Config) *Plasma {
	if c.Keys%parts != 0 {
		panic("streamagg: Keys must be a multiple of parts")
	}
	app := &Plasma{keysPerPart: c.Keys / parts}
	boot := actor.NewClient(rt, servers[0])
	for p := 0; p < parts; p++ {
		srv := servers[p*len(servers)/parts]
		ref := rt.SpawnOn("Part", &partState{app: app, cfg: c}, srv)
		boot.Send(ref, "init", nil, 1)
		app.Parts = append(app.Parts, ref)
	}
	return app
}

// Owner returns the partition actor owning key.
func (a *Plasma) Owner(key int) actor.Ref { return a.Parts[key/a.keysPerPart] }

// ---------------------------------------------------------------------------
// Elastic deployment: one executor per server with a mutable key→executor
// table, repartitioned by baseline.Elasticutor.

// Handoff is the state-movement control message: the source executor
// serializes Keys' state and ships it to executor Dst, which installs it
// and flips ownership.
type Handoff struct {
	Keys []int
	Dst  int
}

// Elastic is the executor-level deployment.
type Elastic struct {
	Execs []actor.Ref
	// Events counts processed events (all executors).
	Events int64
	// HandoffBatches/HandoffKeys/HandoffBytes account completed handoffs.
	HandoffBatches int
	HandoffKeys    int
	HandoffBytes   int64

	rt      *actor.Runtime
	tr      *trace.Tracer
	cfg     Config
	ctl     *actor.Client
	execSrv []cluster.MachineID
	owner   []int   // key → executor index
	moving  []bool  // key has a handoff in flight
	load    []int64 // events per key since ResetLoads
	execMem []int64 // state bytes per executor
}

type execState struct {
	app *Elastic
	idx int
}

func (e *execState) Receive(ctx *actor.Context, msg actor.Message) {
	app := e.app
	switch msg.Method {
	case "init":
		ctx.SetMemSize(app.execMem[e.idx])
	case "ev":
		ctx.Use(app.cfg.EvCost)
		app.Events++
		app.load[msg.Arg.(int)]++
	case "flush":
		ctx.Use(app.cfg.FlushCost)
		ctx.Reply(nil, flushSize)
	case "handoff":
		h := msg.Arg.(*Handoff)
		bytes := int64(len(h.Keys)) * app.cfg.PerKeyBytes
		ctx.Use(actor.SerializeCost(bytes))
		app.execMem[e.idx] -= bytes
		ctx.SetMemSize(app.execMem[e.idx])
		ctx.Send(app.Execs[h.Dst], "install", h, bytes)
	case "install":
		h := msg.Arg.(*Handoff)
		bytes := int64(len(h.Keys)) * app.cfg.PerKeyBytes
		ctx.Use(actor.SerializeCost(bytes))
		app.execMem[e.idx] += bytes
		ctx.SetMemSize(app.execMem[e.idx])
		app.commitHandoff(h, msg.Sender, bytes)
	}
}

func (a *Elastic) commitHandoff(h *Handoff, src actor.Ref, bytes int64) {
	for _, key := range h.Keys {
		a.owner[key] = h.Dst
		a.moving[key] = false
	}
	a.HandoffBatches++
	a.HandoffKeys += len(h.Keys)
	a.HandoffBytes += bytes
	a.tr.Emit(trace.Record{Kind: trace.KindHandoff,
		Server: int32(a.rt.ServerOf(src)), Target: int32(a.execSrv[h.Dst]),
		Actor: uint64(src.ID), Rule: -1, Value: float64(bytes),
		Detail: fmt.Sprintf("%d keys", len(h.Keys))})
}

// BuildElastic deploys one executor per server, keys block-assigned
// (key k starts at executor k·E/Keys). ctlSite is the machine the
// repartitioner's control messages originate from.
func BuildElastic(k *sim.Kernel, rt *actor.Runtime, servers []cluster.MachineID, ctlSite cluster.MachineID, c Config) *Elastic {
	e := len(servers)
	app := &Elastic{
		rt: rt, cfg: c, ctl: actor.NewClient(rt, ctlSite),
		execSrv: append([]cluster.MachineID(nil), servers...),
		owner:   make([]int, c.Keys),
		moving:  make([]bool, c.Keys),
		load:    make([]int64, c.Keys),
		execMem: make([]int64, e),
	}
	for key := 0; key < c.Keys; key++ {
		app.owner[key] = key * e / c.Keys
		app.execMem[app.owner[key]] += c.PerKeyBytes
	}
	boot := actor.NewClient(rt, servers[0])
	for i, srv := range servers {
		ref := rt.SpawnOn("Exec", &execState{app: app, idx: i}, srv)
		boot.Send(ref, "init", nil, 1)
		app.Execs = append(app.Execs, ref)
	}
	return app
}

// SetTracer attaches a decision tracer (handoffs emit KindHandoff records).
func (a *Elastic) SetTracer(tr *trace.Tracer) { a.tr = tr }

// Owner returns the executor actor currently owning key.
func (a *Elastic) Owner(key int) actor.Ref { return a.Execs[a.owner[key]] }

// The baseline.KeyedApp view:

// NumKeys reports the key-space size.
func (a *Elastic) NumKeys() int { return a.cfg.Keys }

// NumExecs reports the executor count.
func (a *Elastic) NumExecs() int { return len(a.Execs) }

// OwnerOf reports the executor index owning key.
func (a *Elastic) OwnerOf(key int) int { return a.owner[key] }

// LoadOf reports key's event count since the last ResetLoads.
func (a *Elastic) LoadOf(key int) int64 { return a.load[key] }

// ResetLoads zeroes the per-key counters (one manager period's window).
func (a *Elastic) ResetLoads() {
	for i := range a.load {
		a.load[i] = 0
	}
}

// Moving reports whether key has a handoff in flight.
func (a *Elastic) Moving(key int) bool { return a.moving[key] }

// StartHandoff initiates moving keys from executor from to executor to:
// ownership flips when the installed state arrives at the destination.
func (a *Elastic) StartHandoff(keys []int, from, to int) {
	h := &Handoff{Keys: append([]int(nil), keys...), Dst: to}
	for _, key := range h.Keys {
		a.moving[key] = true
	}
	a.ctl.Send(a.Execs[from], "handoff", h, 256)
}
