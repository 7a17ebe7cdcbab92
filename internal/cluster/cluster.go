// Package cluster models a cloud cluster for PLASMA's experiments: machines
// with a fixed number of virtual CPUs, memory, and NIC bandwidth, plus a
// provisioner that adds and removes machines with a boot delay (the paper
// uses the AWS Instance Scheduler for the same purpose).
//
// CPU is modeled as vCPU "cores" that each execute one work item at a time;
// pending work queues FIFO. This makes server CPU utilization an emergent,
// truthful signal for the elasticity profiling runtime, which is what all of
// the paper's resource elasticity rules key on.
package cluster

import (
	"fmt"

	"plasma/internal/sim"
	"plasma/internal/trace"
)

// InstanceType describes a machine flavor, mirroring the AWS instance types
// used in the paper's evaluation.
type InstanceType struct {
	Name     string
	VCPUs    int
	MemMB    int64
	NetMbps  float64      // NIC bandwidth
	Boot     sim.Duration // provisioning delay before the machine is usable
	SpeedFac float64      // relative per-core speed (1.0 = baseline); work cost is divided by this
}

// Instance types approximating the paper's testbed. Absolute speeds are
// arbitrary; ratios (small vs medium vs large) match AWS's published specs
// closely enough to preserve the experiments' shapes.
var (
	M1Small  = InstanceType{Name: "m1.small", VCPUs: 1, MemMB: 1700, NetMbps: 250, Boot: 45 * sim.Second, SpeedFac: 1.0}
	M1Medium = InstanceType{Name: "m1.medium", VCPUs: 1, MemMB: 3750, NetMbps: 500, Boot: 45 * sim.Second, SpeedFac: 2.0}
	M5Large  = InstanceType{Name: "m5.large", VCPUs: 2, MemMB: 8192, NetMbps: 10000, Boot: 30 * sim.Second, SpeedFac: 4.0}
)

// MachineID identifies a machine within its cluster.
type MachineID int

// work is one CPU task occupying a core for its cost. Completed work
// structs are recycled through the machine's free list, and fire — the
// completion callback handed to the kernel — is built once per struct, so
// the steady-state Exec path allocates nothing.
type work struct {
	cost  sim.Duration
	start sim.Time
	epoch uint64 // the machine's crashEpoch when submitted
	done  func()
	fire  func() // reusable completion closure: m.complete(w)
	next  *work  // free-list link
}

// Machine is a simulated server.
type Machine struct {
	ID   MachineID
	Type InstanceType

	k        *sim.Kernel
	up       bool
	failed   bool
	decommed bool // permanently removed; Repair must not resurrect it

	bootPending bool                 // provisioned, boot delay still running
	bootDone    func(*Machine, bool) // pending provision-outcome callback
	provClass   ProvClass            // class this machine was provisioned through

	active []*work // currently running, len <= VCPUs
	freeW  *work   // recycled work structs

	// The run queue, work waiting for a core, is queue[qhead:]. Exec slides
	// it to the front of a full array at least half consumed instead of
	// growing it, so a machine in steady state queues without allocating.
	queue []*work
	qhead int

	// crashEpoch counts crashes. Work is stamped with it on submission, so
	// a completion event that outlives a Fail is recognised as stale even
	// when Repair has already put the machine back in service.
	crashEpoch uint64

	windowStart sim.Time
	busyWindow  sim.Duration // completed core-busy time since windowStart
	netBytes    int64        // NIC bytes since windowStart
	memUsed     int64        // bytes currently attributed to this machine
}

// Up reports whether the machine has finished booting and is usable.
func (m *Machine) Up() bool { return m.up && !m.failed }

// ProvClass reports the provisioning class the machine came from
// (WarmPool for pre-seeded machines, which never went through a boot).
// Only tests call it: emr's provision-order test reads each scale-out's
// class, and an export_test.go would not reach another package's tests.
func (m *Machine) ProvClass() ProvClass { return m.provClass }

// ScaledCost converts a baseline CPU cost into this machine's actual
// execution (core-occupancy) time.
func (m *Machine) ScaledCost(cost sim.Duration) sim.Duration {
	if cost <= 0 {
		return 0
	}
	return sim.Duration(float64(cost) / m.Type.SpeedFac)
}

// Exec schedules a CPU task costing cost (at baseline speed) and calls done
// when it completes. Cost is scaled by the machine's per-core speed. Work
// submitted to a failed machine is silently dropped (it crashed).
func (m *Machine) Exec(cost sim.Duration, done func()) {
	if m.failed {
		return
	}
	w := m.allocWork()
	w.cost, w.epoch, w.done = m.ScaledCost(cost), m.crashEpoch, done
	if len(m.active) < m.Type.VCPUs {
		m.start(w)
	} else {
		if n := len(m.queue); n == cap(m.queue) && m.qhead > 0 && m.qhead >= n/2 {
			m.queue, m.qhead = m.queue[:copy(m.queue, m.queue[m.qhead:])], 0
		}
		m.queue = append(m.queue, w)
	}
}

// allocWork pops a recycled work struct or builds a fresh one with its
// permanent completion closure.
func (m *Machine) allocWork() *work {
	if w := m.freeW; w != nil {
		m.freeW = w.next
		w.next = nil
		return w
	}
	w := &work{}
	w.fire = func() { m.complete(w) }
	return w
}

func (m *Machine) start(w *work) {
	w.start = m.k.Now()
	m.active = append(m.active, w)
	m.k.After(w.cost, w.fire)
}

func (m *Machine) complete(w *work) {
	if w.epoch != m.crashEpoch {
		// The machine crashed while this work was in flight (and may have
		// been repaired since). The work died with the crash: done never
		// runs and the accounting window is not charged. The struct is NOT
		// recycled: Fail dropped it from the run queues, and leaving it out
		// of the free list keeps a later stale fire harmless.
		return
	}
	for i, a := range m.active {
		if a == w {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	m.busyWindow += sim.Duration(m.k.Now() - w.start)
	if m.qhead < len(m.queue) {
		next := m.queue[m.qhead]
		m.qhead++
		if m.qhead == len(m.queue) {
			m.queue, m.qhead = m.queue[:0], 0
		}
		m.start(next)
	}
	done := w.done
	// Recycle before running done: the kernel event that fired us was this
	// struct's only pending reference, and done may Exec new work that can
	// immediately reuse it.
	w.done = nil
	w.next = m.freeW
	m.freeW = w
	if done != nil {
		done()
	}
}

// AddNetBytes accounts NIC traffic against the current window.
func (m *Machine) AddNetBytes(n int64) { m.netBytes += n }

// AddMem adjusts the machine's resident memory attribution (may be negative).
func (m *Machine) AddMem(delta int64) {
	m.memUsed += delta
	if m.memUsed < 0 {
		m.memUsed = 0
	}
}

// MemUsed reports resident bytes.
func (m *Machine) MemUsed() int64 { return m.memUsed }

// CPUPercent reports core utilization (0-100) since the window started,
// including partially complete in-flight work.
func (m *Machine) CPUPercent() float64 {
	elapsed := m.k.Now() - m.windowStart
	if elapsed <= 0 {
		return 0
	}
	busy := m.busyWindow
	for _, w := range m.active {
		s := w.start
		if s < m.windowStart {
			s = m.windowStart
		}
		busy += sim.Duration(m.k.Now() - s)
	}
	return float64(busy) / (float64(elapsed) * float64(m.Type.VCPUs)) * 100
}

// NetPercent reports NIC utilization (0-100) since the window started.
func (m *Machine) NetPercent() float64 {
	elapsedSec := (m.k.Now() - m.windowStart).Seconds()
	if elapsedSec <= 0 {
		return 0
	}
	mbps := float64(m.netBytes) * 8 / 1e6 / elapsedSec
	return mbps / m.Type.NetMbps * 100
}

// MemPercent reports memory utilization (0-100).
func (m *Machine) MemPercent() float64 {
	return float64(m.memUsed) / float64(m.Type.MemMB*1024*1024) * 100
}

// ResetWindow starts a fresh accounting window at the current instant.
// In-flight work is credited up to now and continues into the new window.
func (m *Machine) ResetWindow() {
	now := m.k.Now()
	for _, w := range m.active {
		// In-flight time up to now belongs to the closed window; the work
		// restarts its accounting in the new one.
		w.start = now
	}
	m.windowStart = now
	m.busyWindow = 0
	m.netBytes = 0
}

// Cluster manages the machine fleet.
type Cluster struct {
	K *sim.Kernel

	machines []*Machine
	maxSize  int

	// BaseLatency is the one-way network latency between two machines,
	// before the size-proportional transfer term.
	BaseLatency sim.Duration

	provisions    int // total ProvisionClass calls, for experiment accounting
	decommissions int

	// onFail hooks fire synchronously when a machine crashes, letting the
	// actor runtime abort in-flight migrations deterministically.
	onFail []func(MachineID)

	tr *trace.Tracer // nil = machine lifecycle events untraced
}

// SetTracer installs (or removes, with nil) the decision tracer; machine
// lifecycle events (provision, boot, crash, repair, decommission) are
// recorded through it.
func (c *Cluster) SetTracer(t *trace.Tracer) { c.tr = t }

// New creates a cluster with n machines of the given type, already booted.
func New(k *sim.Kernel, n int, typ InstanceType) *Cluster {
	c := &Cluster{K: k, maxSize: 1 << 20, BaseLatency: sim.Millis(0.5)}
	for i := 0; i < n; i++ {
		m := c.newMachine(typ)
		m.up = true
	}
	return c
}

// SetMaxSize caps the fleet size for ProvisionClass (the paper's Media Service
// scales "up to 65 instances").
func (c *Cluster) SetMaxSize(n int) { c.maxSize = n }

func (c *Cluster) newMachine(typ InstanceType) *Machine {
	id := MachineID(len(c.machines))
	m := &Machine{ID: id, Type: typ, k: c.K, windowStart: c.K.Now()}
	c.machines = append(c.machines, m)
	return m
}

// OnFail registers a hook invoked synchronously whenever a machine crashes
// (after its run queues have been dropped).
func (c *Cluster) OnFail(fn func(MachineID)) { c.onFail = append(c.onFail, fn) }

// Fail crashes a machine: it leaves service immediately, in-flight and
// queued work is lost, and nothing can execute on it until the experiment
// explicitly repairs it with Repair. A machine still booting may also be
// crashed: its provision never completes (the pending boot timer becomes
// a no-op, the outcome callback fires with ok=false) and it is gone for
// good. Returns false for unknown/already-down ids.
func (c *Cluster) Fail(id MachineID) bool {
	m := c.Machine(id)
	if m == nil || m.failed || m.decommed {
		return false
	}
	if m.bootPending {
		// Crash mid-boot: the machine never entered service, so there are
		// no run queues to drop, no actors to re-home, and nothing for
		// Repair to restore — it is permanently gone.
		m.failed = true
		m.bootPending = false
		m.decommed = true
		c.tr.Emit(trace.Record{Kind: trace.KindCrash, Server: int32(id), Target: -1, Rule: -1, Detail: "mid-boot"})
		done := m.bootDone
		m.bootDone = nil
		if done != nil {
			done(m, false)
		}
		return true
	}
	if !m.up {
		return false
	}
	m.failed = true
	m.crashEpoch++
	m.active = nil
	m.queue, m.qhead = nil, 0
	c.tr.Emit(trace.Record{Kind: trace.KindCrash, Server: int32(id), Target: -1, Rule: -1})
	for _, fn := range c.onFail {
		fn(id)
	}
	return true
}

// Repair returns a failed machine to service with empty run queues and a
// fresh accounting window. A decommissioned machine is gone for good:
// repairing it is rejected and it never re-enters UpMachines.
func (c *Cluster) Repair(id MachineID) bool {
	m := c.Machine(id)
	if m == nil || !m.failed || m.decommed {
		return false
	}
	m.failed = false
	m.memUsed = 0
	m.ResetWindow()
	c.tr.Emit(trace.Record{Kind: trace.KindRepair, Server: int32(id), Target: -1, Rule: -1})
	return true
}

// Decommission removes a machine from service permanently. The caller is
// responsible for having evacuated it first. A crashed (failed) machine may
// be decommissioned — it is down either way — and so may a machine still
// booting (the fleet shrank before the boot finished: the pending boot
// timer becomes a no-op and the provision outcome is failure). A
// decommissioned machine can never be repaired back into service.
func (c *Cluster) Decommission(id MachineID) error {
	m := c.Machine(id)
	if m == nil {
		return fmt.Errorf("cluster: no machine %d", id)
	}
	if m.decommed {
		return fmt.Errorf("cluster: machine %d is not up", id)
	}
	if m.bootPending {
		m.bootPending = false
		m.decommed = true
		c.decommissions++
		c.tr.Emit(trace.Record{Kind: trace.KindDecommission, Server: int32(id), Target: -1, Rule: -1, Detail: "mid-boot"})
		done := m.bootDone
		m.bootDone = nil
		if done != nil {
			done(m, false)
		}
		return nil
	}
	if !m.up {
		return fmt.Errorf("cluster: machine %d is not up", id)
	}
	m.up = false
	m.decommed = true
	c.decommissions++
	c.tr.Emit(trace.Record{Kind: trace.KindDecommission, Server: int32(id), Target: -1, Rule: -1})
	return nil
}

// Machine returns the machine with the given id, or nil.
func (c *Cluster) Machine(id MachineID) *Machine {
	if int(id) < 0 || int(id) >= len(c.machines) {
		return nil
	}
	return c.machines[id]
}

// Machines returns all machines ever created (including down ones).
func (c *Cluster) Machines() []*Machine { return c.machines }

// UpMachines returns the machines currently in service, in id order.
func (c *Cluster) UpMachines() []*Machine {
	var up []*Machine
	for _, m := range c.machines {
		if m.Up() {
			up = append(up, m)
		}
	}
	return up
}

// UpCount reports the number of machines in service.
func (c *Cluster) UpCount() int {
	n := 0
	for _, m := range c.machines {
		if m.Up() {
			n++
		}
	}
	return n
}

// Provisions reports the number of ProvisionClass calls so far.
func (c *Cluster) Provisions() int { return c.provisions }

// Decommissions reports the number of Decommission calls so far.
func (c *Cluster) Decommissions() int { return c.decommissions }

// TransferLatency is the one-way latency for moving size bytes from src to
// dst: base latency plus a bandwidth term at the slower NIC's rate. Local
// delivery (src == dst) is free.
func (c *Cluster) TransferLatency(src, dst MachineID, size int64) sim.Duration {
	if src == dst {
		return 0
	}
	srcM, dstM := c.Machine(src), c.Machine(dst)
	mbps := srcM.Type.NetMbps
	if dstM.Type.NetMbps < mbps {
		mbps = dstM.Type.NetMbps
	}
	transfer := sim.Duration(float64(size) * 8 / mbps) // bytes*8 bits / (Mbps = bits/µs)
	return c.BaseLatency + transfer
}
