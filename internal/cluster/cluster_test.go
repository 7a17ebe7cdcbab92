package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"plasma/internal/sim"
)

func newTestMachine(k *sim.Kernel, vcpus int) *Machine {
	typ := InstanceType{Name: "test", VCPUs: vcpus, MemMB: 1024, NetMbps: 100, SpeedFac: 1.0}
	c := New(k, 1, typ)
	return c.UpMachines()[0]
}

func TestExecCompletesAfterCost(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	var doneAt sim.Time
	m.Exec(10*sim.Millisecond, func() { doneAt = k.Now() })
	k.RunUntilIdle()
	if doneAt != sim.Time(10*sim.Millisecond) {
		t.Fatalf("done at %d, want 10ms", doneAt)
	}
}

func TestSingleCoreSerializesWork(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	var order []int
	m.Exec(10*sim.Millisecond, func() { order = append(order, 1) })
	m.Exec(10*sim.Millisecond, func() { order = append(order, 2) })
	if m.QueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1", m.QueueLen())
	}
	k.RunUntilIdle()
	if k.Now() != sim.Time(20*sim.Millisecond) {
		t.Fatalf("finished at %v, want 20ms (serialized)", k.Now())
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order %v", order)
	}
}

// A completion is an ordinary kernel event: at one instant it takes its
// place in scheduling order, ahead of a later-scheduled event of any kind.
func TestExecCompletionKeepsSchedulingOrder(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	var order []string
	m.Exec(10*sim.Millisecond, func() { order = append(order, "exec") })
	k.At(sim.Time(10*sim.Millisecond), func() { order = append(order, "at") })
	k.RunUntilIdle()
	if len(order) != 2 || order[0] != "exec" || order[1] != "at" {
		t.Fatalf("same-instant order %v, want [exec at]", order)
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 2)
	done := 0
	m.Exec(10*sim.Millisecond, func() { done++ })
	m.Exec(10*sim.Millisecond, func() { done++ })
	k.RunUntilIdle()
	if k.Now() != sim.Time(10*sim.Millisecond) {
		t.Fatalf("finished at %v, want 10ms (parallel)", k.Now())
	}
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
}

func TestSpeedFactorScalesCost(t *testing.T) {
	k := sim.New(1)
	typ := InstanceType{Name: "fast", VCPUs: 1, MemMB: 1024, NetMbps: 100, SpeedFac: 2.0}
	c := New(k, 1, typ)
	m := c.UpMachines()[0]
	m.Exec(10*sim.Millisecond, nil)
	k.RunUntilIdle()
	if k.Now() != sim.Time(5*sim.Millisecond) {
		t.Fatalf("finished at %v, want 5ms on 2x machine", k.Now())
	}
}

func TestCPUPercentFullyBusy(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	m.Exec(sim.Second, nil)
	k.Run(sim.Time(500 * sim.Millisecond))
	if got := m.CPUPercent(); math.Abs(got-100) > 0.5 {
		t.Fatalf("CPU%% = %v, want ~100 (in-flight work counted)", got)
	}
	k.RunUntilIdle()
	if got := m.CPUPercent(); math.Abs(got-100) > 0.5 {
		t.Fatalf("CPU%% after completion = %v, want ~100", got)
	}
}

func TestCPUPercentHalfBusyTwoCores(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 2)
	m.Exec(sim.Second, nil)
	k.Run(sim.Time(sim.Second))
	k.RunUntilIdle()
	if got := m.CPUPercent(); math.Abs(got-50) > 1 {
		t.Fatalf("CPU%% = %v, want ~50 (1 of 2 cores busy)", got)
	}
}

func TestResetWindowClearsUtilization(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	m.Exec(sim.Second, nil)
	k.RunUntilIdle()
	m.ResetWindow()
	k.Run(k.Now() + sim.Time(sim.Second))
	if got := m.CPUPercent(); got != 0 {
		t.Fatalf("CPU%% after reset+idle = %v, want 0", got)
	}
}

func TestResetWindowStraddlingWork(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	m.Exec(2*sim.Second, nil)
	k.Run(sim.Time(sim.Second))
	m.ResetWindow()
	k.RunUntilIdle() // work completes at t=2s, 1s inside the new window
	k.Run(k.Now() + sim.Time(sim.Second))
	// New window spans [1s, 3s] with 1s of busy -> 50%.
	if got := m.CPUPercent(); math.Abs(got-50) > 1 {
		t.Fatalf("CPU%% = %v, want ~50", got)
	}
}

func TestNetPercent(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1) // 100 Mbps
	// 100 Mbps over 1s = 12.5 MB; send 6.25 MB -> 50%.
	m.AddNetBytes(6_250_000)
	k.Run(sim.Time(sim.Second))
	if got := m.NetPercent(); math.Abs(got-50) > 1 {
		t.Fatalf("net%% = %v, want ~50", got)
	}
}

func TestMemAccounting(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1) // 1024 MB
	m.AddMem(512 * 1024 * 1024)
	if got := m.MemPercent(); math.Abs(got-50) > 0.01 {
		t.Fatalf("mem%% = %v, want 50", got)
	}
	m.AddMem(-600 * 1024 * 1024)
	if m.MemUsed() != 0 {
		t.Fatalf("mem clamped to %d, want 0", m.MemUsed())
	}
}

// vmSpec is the paper's provisioner as a class: one constant boot delay, no
// failures, unlimited supply.
func vmSpec(typ InstanceType) *ProvSpec {
	return &ProvSpec{Class: VM, BootMin: typ.Boot, Capacity: -1}
}

func TestProvisionBootDelay(t *testing.T) {
	k := sim.New(1)
	typ := InstanceType{Name: "t", VCPUs: 1, MemMB: 1024, NetMbps: 100, Boot: 30 * sim.Second, SpeedFac: 1}
	c := New(k, 1, typ)
	var upAt sim.Time = -1
	m := c.ProvisionClass(typ, vmSpec(typ), func(*Machine, bool) { upAt = k.Now() })
	if m.Up() {
		t.Fatal("machine up before boot delay")
	}
	if c.UpCount() != 1 {
		t.Fatalf("UpCount = %d, want 1 during boot", c.UpCount())
	}
	k.RunUntilIdle()
	if !m.Up() || upAt != sim.Time(30*sim.Second) {
		t.Fatalf("up=%v upAt=%v, want up at 30s", m.Up(), upAt)
	}
	if c.Provisions() != 1 {
		t.Fatalf("Provisions = %d", c.Provisions())
	}
}

func TestProvisionRespectsMaxSize(t *testing.T) {
	k := sim.New(1)
	c := New(k, 2, M1Small)
	c.SetMaxSize(2)
	if m := c.ProvisionClass(M1Small, vmSpec(M1Small), nil); m != nil {
		t.Fatal("ProvisionClass exceeded max size")
	}
}

func TestDecommission(t *testing.T) {
	k := sim.New(1)
	c := New(k, 2, M1Small)
	if err := c.Decommission(0); err != nil {
		t.Fatal(err)
	}
	if c.UpCount() != 1 {
		t.Fatalf("UpCount = %d, want 1", c.UpCount())
	}
	if err := c.Decommission(0); err == nil {
		t.Fatal("double decommission should fail")
	}
	if err := c.Decommission(99); err == nil {
		t.Fatal("unknown machine should fail")
	}
}

// Repair after Decommission must be well-defined: a decommissioned machine
// is gone for good and never resurrects into UpMachines, whether it was
// healthy or crashed when removed.
func TestRepairAfterDecommissionRefused(t *testing.T) {
	k := sim.New(1)
	c := New(k, 3, M1Small)
	if err := c.Decommission(0); err != nil {
		t.Fatal(err)
	}
	if c.Repair(0) {
		t.Fatal("repaired a decommissioned machine")
	}
	if c.Machine(0).Up() || c.UpCount() != 2 {
		t.Fatal("decommissioned machine resurrected")
	}
	if !c.Machine(0).Decommissioned() {
		t.Fatal("Decommissioned() not reported")
	}
	// A crashed machine may be decommissioned (it is down either way)...
	if !c.Fail(1) {
		t.Fatal("Fail rejected")
	}
	if err := c.Decommission(1); err != nil {
		t.Fatalf("decommissioning a crashed machine: %v", err)
	}
	// ...after which repair is refused for it too.
	if c.Repair(1) {
		t.Fatal("repaired a crashed-then-decommissioned machine")
	}
	if c.Machine(1).Up() {
		t.Fatal("machine resurrected")
	}
	for _, m := range c.UpMachines() {
		if m.ID == 0 || m.ID == 1 {
			t.Fatal("decommissioned machine in UpMachines")
		}
	}
}

// Work in flight when a machine crashes died with the crash, even when the
// machine is repaired before the work's completion event fires: the stale
// event must neither run done nor charge the new accounting window.
func TestStaleCompletionAfterFailAndRepairIsDropped(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, InstanceType{Name: "test", VCPUs: 1, MemMB: 1024, NetMbps: 100, SpeedFac: 1.0})
	m := c.Machine(0)
	var stale, queued int
	var freshAt sim.Time
	m.Exec(10*sim.Second, func() { stale++ })
	m.Exec(sim.Second, func() { queued++ }) // waiting for the core when the crash hits
	k.At(sim.Time(sim.Second), func() { c.Fail(0) })
	k.At(sim.Time(2*sim.Second), func() { c.Repair(0) })
	// Work submitted after the repair shares the core with nothing.
	k.At(sim.Time(3*sim.Second), func() { m.Exec(sim.Second, func() { freshAt = k.Now() }) })
	var cpuAt10 float64
	k.At(sim.Time(10*sim.Second)+1, func() { cpuAt10 = m.CPUPercent() })
	k.RunUntilIdle()
	if stale != 0 || queued != 0 {
		t.Fatalf("work lost in the crash completed: in-flight %d, queued %d", stale, queued)
	}
	if freshAt != sim.Time(4*sim.Second) {
		t.Fatalf("post-repair work done at %v, want 4s", freshAt)
	}
	// One second of work in the eight since the repair opened the window
	// (the stale completion used to add its ten: 125%).
	if math.Abs(cpuAt10-12.5) > 1e-3 {
		t.Fatalf("CPUPercent at 10s = %v, want 12.5", cpuAt10)
	}
	if m.Busy() != 0 || m.QueueLen() != 0 {
		t.Fatalf("run queues not empty: busy %d, queued %d", m.Busy(), m.QueueLen())
	}
}

func TestTransferLatency(t *testing.T) {
	k := sim.New(1)
	c := New(k, 2, M1Small) // 250 Mbps
	if got := c.TransferLatency(0, 0, 1e6); got != 0 {
		t.Fatalf("local transfer latency = %v, want 0", got)
	}
	// 1 MB over 250 Mbps = 8e6 bits / 250 bits/µs = 32000 µs, + 500 µs base.
	want := sim.Duration(32000) + c.BaseLatency
	if got := c.TransferLatency(0, 1, 1e6); got != want {
		t.Fatalf("transfer latency = %v, want %v", got, want)
	}
}

func TestTransferLatencyUsesSlowerNIC(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, M1Small)
	c.ProvisionClass(M5Large, vmSpec(M5Large), nil)
	k.RunUntilIdle()
	// m1.small's 250 Mbps should bound the m5.large's 10 Gbps.
	lat := c.TransferLatency(0, 1, 1e6) - c.BaseLatency
	want := sim.Duration(1e6 * 8 / 250)
	if lat != want {
		t.Fatalf("transfer term = %v, want %v", lat, want)
	}
}

// Property: CPUPercent stays within [0, 100] under arbitrary workloads.
func TestPropertyCPUPercentBounded(t *testing.T) {
	f := func(costs []uint16, vcpus8 uint8) bool {
		vcpus := int(vcpus8%4) + 1
		k := sim.New(11)
		m := newTestMachine(k, vcpus)
		for _, c := range costs {
			m.Exec(sim.Duration(c)*sim.Millisecond, nil)
		}
		ok := true
		k.Every(100*sim.Millisecond, func() bool {
			p := m.CPUPercent()
			if p < 0 || p > 100.0001 {
				ok = false
			}
			return k.Pending() > 1
		})
		k.RunUntilIdle()
		return ok && m.CPUPercent() <= 100.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time equals total submitted cost once idle (single
// window, no resets).
func TestPropertyBusyConservation(t *testing.T) {
	f := func(costs []uint16) bool {
		k := sim.New(13)
		m := newTestMachine(k, 2)
		var total sim.Duration
		for _, c := range costs {
			d := sim.Duration(c) * sim.Microsecond
			total += d
			m.Exec(d, nil)
		}
		k.RunUntilIdle()
		if k.Now() == 0 {
			return total == 0
		}
		busy := sim.Duration(float64(m.CPUPercent()) / 100 * float64(k.Now()) * float64(m.Type.VCPUs))
		diff := busy - total
		if diff < 0 {
			diff = -diff
		}
		return diff <= sim.Duration(len(costs)+1) // rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Once the run queue's array has grown, an Exec→complete cycle on a machine
// with a deep queue allocates nothing: the queue keeps its array and the
// work structs come from the free list.
func TestExecDeepQueueAllocatesNothing(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	var refill func()
	refill = func() { m.Exec(sim.Millisecond, refill) }
	for i := 0; i < 64; i++ {
		refill()
	}
	// The kernel's queue takes storage the first time its clock carries into
	// a higher bit: warm up past 2^22 µs, so the measured two seconds (1000
	// completions, twice) carry into none.
	k.Run(1 << 22)
	steps := func() {
		for i := 0; i < 1000; i++ {
			k.Step()
		}
	}
	if got := testing.AllocsPerRun(1, steps); got != 0 {
		t.Fatalf("1000 completions on a 63-deep queue allocated %v times, want 0", got)
	}
	if m.QueueLen() != 63 {
		t.Fatalf("queue len = %d, want 63", m.QueueLen())
	}
}

// The run queue is FIFO across its slides to the front of its array and its
// drains, and the slides keep the array within a small multiple of the
// deepest queue.
func TestRunQueueFIFOAcrossSlides(t *testing.T) {
	k := sim.New(1)
	m := newTestMachine(k, 1)
	var got []int
	next, deepest := 0, 0
	var submit func()
	submit = func() {
		id := next
		next++
		m.Exec(sim.Millisecond, func() {
			got = append(got, id)
			// Zero, one or two more: the queue's depth wanders, drains and
			// refills.
			for i := 0; i < id%3 && next < 2000; i++ {
				submit()
			}
			if next < 2000 && m.QueueLen() == 0 && m.Busy() == 0 {
				submit()
			}
			deepest = max(deepest, m.QueueLen())
		})
	}
	for i := 0; i < 10; i++ {
		submit()
	}
	k.RunUntilIdle()
	if len(got) != next {
		t.Fatalf("%d of %d submitted tasks completed", len(got), next)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("completion %d was task %d, want FIFO order", i, id)
		}
	}
	if cap(m.queue) > 4*deepest+8 {
		t.Fatalf("queue array grew to %d for a queue never deeper than %d", cap(m.queue), deepest)
	}
}

// A crash drops the whole run queue however far its head had advanced:
// after Repair the queue is empty, none of the dropped work completes, and
// new work starts at once.
func TestFailDropsAdvancedRunQueue(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, InstanceType{Name: "test", VCPUs: 1, MemMB: 1024, NetMbps: 100, SpeedFac: 1.0})
	m := c.Machine(0)
	done := 0
	for i := 0; i < 6; i++ {
		m.Exec(sim.Second, func() { done++ })
	}
	var freshAt sim.Time
	k.At(sim.Time(2500*sim.Millisecond), func() { c.Fail(0) })
	k.At(sim.Time(3*sim.Second), func() {
		c.Repair(0)
		if m.QueueLen() != 0 {
			t.Errorf("queue len after repair = %d, want 0", m.QueueLen())
		}
		m.Exec(sim.Second, func() { freshAt = k.Now() })
	})
	k.RunUntilIdle()
	if done != 2 {
		t.Fatalf("%d tasks completed, want the 2 finished before the crash", done)
	}
	if freshAt != sim.Time(4*sim.Second) {
		t.Fatalf("post-repair work done at %v, want 4s", freshAt)
	}
	if m.Busy() != 0 || m.QueueLen() != 0 {
		t.Fatalf("run queues not empty: busy %d, queued %d", m.Busy(), m.QueueLen())
	}
}
