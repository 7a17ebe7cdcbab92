package profile

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Snapshot program ops. Every op is two bytes, kind and argument, so a
// mutation changes one call and leaves the rest of the program in place.
const (
	opSpawn    = iota // on up machine arg
	opStop            // actor arg
	opSend            // client → actor arg
	opRelay           // client → actor arg → actor arg+1
	opAsk             // client request to actor arg; the reply charges net
	opMemSize         // actor arg's handler calls SetMemSize
	opCtxProp         // actor arg's handler calls SetProp
	opAddProp         // actor arg's handler calls AddPropRef
	opSetProp         // Runtime.SetProp on actor arg
	opPin             // Pin actor arg
	opUnpin           // Unpin actor arg
	opMigrate         // actor arg to machine arg/8
	opFail            // crash machine arg (0–2; 3 hosts the client)
	opRepair          // repair machine arg
	opRecover         // RecoverMachine(arg)
	opRun             // run the kernel arg ms further
	opSnapshot        // Snapshot(nil), checked against the naive build
	opReset           // close the window
	numOps
)

// runSnapshotProgram decodes data into calls on a 4-machine cluster and
// checks every Snapshot against naiveSnapshot, field for field.
func runSnapshotProgram(t *testing.T, data []byte) {
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.InstanceType{Name: "t", VCPUs: 2, MemMB: 4096, NetMbps: 1000, SpeedFac: 1})
	rt := actor.NewRuntime(k, c)
	h := &logHook{Profiler: New(k, c, rt)}
	rt.SetProfiler(h)
	cl := actor.NewClient(rt, 3)

	var refs []actor.Ref // every actor spawned, live or not
	behavior := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(sim.Duration(1+msg.Size%4) * sim.Millisecond)
		arg, _ := msg.Arg.(actor.Ref)
		switch msg.Method {
		case "relay":
			ctx.Send(arg, "m", nil, 32)
		case "ask":
			ctx.Reply(nil, 48)
		case "mem":
			ctx.SetMemSize(msg.Size << 10)
		case "prop":
			ctx.SetProp("p", []actor.Ref{arg})
		case "add":
			ctx.AddPropRef("p", arg)
		}
	})
	pick := func(arg byte) actor.Ref { return refs[int(arg)%len(refs)] }
	for ; len(data) >= 2; data = data[2:] {
		op, arg := data[0]%numOps, data[1]
		if len(refs) == 0 && op != opSpawn && op < opFail {
			continue
		}
		switch op {
		case opSpawn:
			if m := c.Machine(cluster.MachineID(arg % 4)); m.Up() {
				refs = append(refs, rt.SpawnOn([]string{"A", "B"}[arg/4%2], behavior, m.ID))
			}
		case opStop:
			rt.Stop(pick(arg))
		case opSend:
			cl.Send(pick(arg), "m", nil, int64(arg))
		case opRelay:
			cl.Send(pick(arg), "relay", pick(arg+1), 16)
		case opAsk:
			cl.Request(pick(arg), "ask", nil, 24, nil)
		case opMemSize:
			cl.Send(pick(arg), "mem", nil, int64(arg))
		case opCtxProp:
			cl.Send(pick(arg), "prop", pick(arg/2), 8)
		case opAddProp:
			cl.Send(pick(arg), "add", pick(arg/2), 8)
		case opSetProp:
			rt.SetProp(pick(arg), "q", []actor.Ref{pick(arg / 2)})
		case opPin:
			rt.Pin(pick(arg))
		case opUnpin:
			rt.Unpin(pick(arg))
		case opMigrate:
			rt.Migrate(pick(arg), cluster.MachineID(arg/8%4), nil)
		case opFail:
			c.Fail(cluster.MachineID(arg % 3))
		case opRepair:
			c.Repair(cluster.MachineID(arg % 3))
		case opRecover:
			rt.RecoverMachine(cluster.MachineID(arg % 3))
		case opRun:
			k.Run(k.Now() + sim.Time(sim.Duration(arg)*sim.Millisecond))
		case opSnapshot:
			requireMatchesNaive(t, h, h.Snapshot(nil))
		case opReset:
			h.Reset()
			h.log = h.log[:0]
		}
	}
	requireMatchesNaive(t, h, h.Snapshot(nil))
}

// FuzzSnapshot turns bytes into a program of spawns, stops, client and
// actor-to-actor sends, property, memory and pin changes, migrations,
// crashes, repairs and recoveries, kernel runs, snapshots and resets, and
// compares every snapshot with the naive from-scratch build: a row the
// sparse refresh leaves alone must still be what a full rebuild would show.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{})
	// Busy actors beside a quiet one whose metadata alone changes.
	f.Add([]byte{
		opSpawn, 0, opSpawn, 1, opSpawn, 2, opSend, 0, opRun, 50, opSnapshot, 0, opReset, 0,
		opSetProp, 2, opPin, 2, opSend, 1, opRun, 50, opSnapshot, 0, opReset, 0,
		opMigrate, 26, opRun, 50, opSnapshot, 0, opUnpin, 2, opRun, 50, opSnapshot, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("longer programs only repeat what shorter ones reach")
		}
		runSnapshotProgram(t, data)
	})
}
