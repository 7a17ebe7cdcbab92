// Package estore is the E-Store application of §3.3 and §5.5 (Fig. 9): an
// elastic partitioning layer for a distributed OLTP store. Root-level key
// Partition actors hold range blocks and are co-located with their child
// partitions; reads hit a root and continue into one child.
//
// Two elasticity managers are compared: PLASMA executing the three §3.3
// rules, and an in-app implementation of E-Store's own algorithm (migrate
// the top-k% hottest root partitions, with their children, from servers
// above a high-water mark to idle servers).
package estore

import (
	"sort"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// PolicySrc is the §3.3 E-Store policy, verbatim.
const PolicySrc = `
server.cpu.perc > 80 and
client.call(Partition(p1).read).perc > 30 =>
    reserve(p1, cpu);
Partition(p2) in ref(Partition(p1).children) =>
    colocate(p1, p2);
server.cpu.perc < 50 => balance({Partition}, cpu);
`

// Schema declares the application's actor classes.
func Schema() *epl.Schema {
	return epl.NewSchema(
		epl.Class("Partition", []string{"read", "readChild"}, []string{"children"}),
	)
}

// Per-operation CPU costs.
const (
	rootCost  = 3 * sim.Millisecond
	childCost = 6 * sim.Millisecond
	repSize   = 512
)

// App is a deployed E-Store.
type App struct {
	RT       *actor.Runtime
	Roots    []actor.Ref
	Children [][]actor.Ref
}

type rootState struct {
	children []actor.Ref
	next     int
}

func (r *rootState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "init":
		ctx.SetProp("children", r.children)
		ctx.SetMemSize(1 << 20)
	case "read":
		ctx.Use(rootCost)
		if len(r.children) == 0 {
			ctx.Reply(nil, repSize)
			return
		}
		ch := r.children[r.next%len(r.children)]
		r.next++
		ctx.Forward(ch, "readChild", msg.Arg, msg.Size)
	}
}

type childState struct{}

func (childState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "init":
		ctx.SetMemSize(2 << 20)
	case "readChild":
		ctx.Use(childCost)
		ctx.Reply(nil, repSize)
	}
}

// Build deploys roots×childrenPer partition actors spread evenly (roots
// round-robin with their children on the same server) over the servers.
func Build(rt *actor.Runtime, servers []cluster.MachineID, roots, childrenPer int) *App {
	app := &App{RT: rt}
	boot := actor.NewClient(rt, servers[0])
	for i := 0; i < roots; i++ {
		srv := servers[i%len(servers)]
		var children []actor.Ref
		for j := 0; j < childrenPer; j++ {
			ch := rt.SpawnOn("Partition", childState{}, srv)
			boot.Send(ch, "init", nil, 1)
			children = append(children, ch)
		}
		root := rt.SpawnOn("Partition", &rootState{children: children}, srv)
		boot.Send(root, "init", nil, 1)
		app.Roots = append(app.Roots, root)
		app.Children = append(app.Children, children)
	}
	return app
}

// The in-app algorithm's constants: a server is hot above highWater CPU
// percent, and a period moves the topFrac most-requested roots (k%).
const (
	highWater = 80
	topFrac   = 0.1
)

// InApp is the AEON E-Store baseline of §5.5: application-specific
// elasticity logic (the paper's authors added 3000 LoC for it). Every
// period it checks per-server CPU against a high-water mark and moves the
// top-k% most-requested root partitions on hot servers — together with
// their children — to the idlest servers. Tick is one period, planned from
// the EPR window the caller's period timer has just closed.
type InApp struct {
	RT  *actor.Runtime
	App *App

	Migrations int
}

// Tick runs one period of the in-app algorithm.
func (e *InApp) Tick(snap *epl.Snapshot) {
	// Hot servers above the high-water mark, idlest first for targets.
	var hot, cool []*epl.ServerInfo
	hotIDs := map[cluster.MachineID]bool{}
	for _, s := range snap.Servers {
		if s.CPUPerc > highWater {
			hot = append(hot, s)
			hotIDs[s.ID] = true
		} else {
			cool = append(cool, s)
		}
	}
	if len(hot) == 0 || len(cool) == 0 {
		return
	}
	sort.Slice(cool, func(i, j int) bool { return cool[i].CPUPerc < cool[j].CPUPerc })

	// Rank root partitions on hot servers by request activity, globally,
	// and migrate the top k% of all roots with their children.
	type hotRoot struct {
		idx   int
		count int64
	}
	var ranked []hotRoot
	for i, root := range e.App.Roots {
		ai := snap.Actor(root)
		if ai == nil || !hotIDs[ai.Server] {
			continue
		}
		var reads int64
		for _, cs := range ai.Calls {
			if cs.Method == "read" {
				reads += cs.Count
			}
		}
		ranked = append(ranked, hotRoot{i, reads})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].count > ranked[j].count })
	n := int(float64(len(e.App.Roots))*topFrac + 0.999)
	next := 0
	for i := 0; i < n && i < len(ranked); i++ {
		trg := cool[next%len(cool)]
		next++
		rootIdx := ranked[i].idx
		e.RT.Migrate(e.App.Roots[rootIdx], trg.ID, nil)
		e.Migrations++
		for _, ch := range e.App.Children[rootIdx] {
			e.RT.Migrate(ch, trg.ID, nil)
			e.Migrations++
		}
	}
}
