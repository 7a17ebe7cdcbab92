package cluster

import (
	"fmt"

	"plasma/internal/sim"
	"plasma/internal/trace"
)

// ProvClass is a provisioning class: how fast (and how reliably) new
// capacity comes online. The paper models a single constant boot delay;
// real elasticity outcomes hinge on the provisioning spectrum — a
// warm-pool restore lands in milliseconds, a container in seconds, a VM
// in tens of seconds — so the cluster exposes all three as first-class
// classes that scale-out policy can choose between.
type ProvClass int

const (
	// WarmPool is pre-booted capacity held in reserve: near-instant
	// activation, but the pool is finite.
	WarmPool ProvClass = iota
	// Container is container-style provisioning: seconds to start,
	// effectively unlimited supply.
	Container
	// VM is full virtual-machine provisioning: tens of seconds, the
	// paper's original single boot constant.
	VM
	numProvClasses
)

func (pc ProvClass) String() string {
	switch pc {
	case WarmPool:
		return "warm"
	case Container:
		return "container"
	case VM:
		return "vm"
	}
	return fmt.Sprintf("ProvClass(%d)", int(pc))
}

// ProvClassFromString parses a class name as written by ProvClass.String.
func ProvClassFromString(s string) (ProvClass, bool) {
	for pc := ProvClass(0); pc < numProvClasses; pc++ {
		if pc.String() == s {
			return pc, true
		}
	}
	return 0, false
}

// ProvClassNames lists every class name in declaration order.
func ProvClassNames() []string {
	out := make([]string, numProvClasses)
	for i := range out {
		out[i] = ProvClass(i).String()
	}
	return out
}

// ProvSpec describes one provisioning class's behavior: a uniform
// boot-time distribution over [BootMin, BootMax], a per-attempt failure
// probability, and (for warm pools) a finite capacity. A spec is mutable
// state — warm-pool acquisitions decrement Capacity — so callers hold
// specs by pointer for the life of a run.
type ProvSpec struct {
	Class ProvClass
	// BootMin/BootMax bound the uniform boot-time draw. BootMax <= BootMin
	// makes the boot deterministic at BootMin (no RNG consumed).
	BootMin sim.Duration
	BootMax sim.Duration
	// FailProb is the probability one boot attempt fails (0 disables the
	// failure draw entirely, consuming no randomness).
	FailProb float64
	// Capacity is the remaining pool size; negative means unlimited.
	Capacity int
}

// A failed boot is retried after a backoff that starts at provBaseBackoff
// and doubles per attempt up to provMaxBackoff; a provision makes at most
// provAttempts attempts in all.
const (
	provAttempts    = 3
	provBaseBackoff = sim.Second
	provMaxBackoff  = 8 * sim.Second
)

// backoff is the delay before the retry that follows failed attempt number
// attempt (0-based).
func backoff(attempt int) sim.Duration {
	return min(provBaseBackoff<<attempt, provMaxBackoff)
}

// DefaultProvSpecs is the calibrated three-class spectrum used by the
// burst experiments: a small near-instant warm pool, elastic containers,
// and slow VMs. Boot windows follow Dandelion-style measurements
// (millisecond restores vs multi-second VM boots), scaled to the
// simulator's instance catalog.
func DefaultProvSpecs() []ProvSpec {
	return []ProvSpec{
		{Class: WarmPool, BootMin: 50 * sim.Millisecond, BootMax: 200 * sim.Millisecond, FailProb: 0.01, Capacity: 8},
		{Class: Container, BootMin: 2 * sim.Second, BootMax: 5 * sim.Second, FailProb: 0.03, Capacity: -1},
		{Class: VM, BootMin: 30 * sim.Second, BootMax: 60 * sim.Second, FailProb: 0.05, Capacity: -1},
	}
}

// Available reports whether the class can supply at least one machine.
func (s *ProvSpec) Available() bool { return s.Capacity != 0 }

// acquire consumes one unit of pool capacity, reporting success.
func (s *ProvSpec) acquire() bool {
	if s.Capacity < 0 {
		return true
	}
	if s.Capacity == 0 {
		return false
	}
	s.Capacity--
	return true
}

// ProvisionClass boots a new machine of the given type through a
// provisioning class. The machine is returned immediately but only
// becomes Up once a boot attempt succeeds; done (if non-nil) fires
// exactly once with ok=true when the machine comes up, or ok=false if
// provisioning fails permanently (retries exhausted, or the machine is
// crashed/decommissioned mid-boot).
//
// The paper's single constant boot delay is the spec {Class: VM, BootMin:
// typ.Boot, Capacity: -1}: no failure draw and no randomness.
//
// Returns nil without side effects when the fleet is at its cap or the
// class's pool is exhausted.
func (c *Cluster) ProvisionClass(typ InstanceType, spec *ProvSpec, done func(*Machine, bool)) *Machine {
	if c.UpCount() >= c.maxSize || !spec.acquire() {
		return nil
	}
	m := c.newMachine(typ)
	m.bootPending = true
	m.bootDone = done
	m.provClass = spec.Class
	c.provisions++
	c.tr.Emit(trace.Record{Kind: trace.KindProvision, Server: -1, Target: int32(m.ID), Rule: -1,
		Detail: typ.Name + "/" + spec.Class.String()})
	c.startBoot(m, spec, 0)
	return m
}

// startBoot draws one boot attempt's duration and failure verdict from
// the kernel's stream (at scheduling time, so the sequence is a function
// of the call order alone) and schedules its completion. Failed attempts
// retry with capped exponential backoff until provAttempts, each failure
// and retry emitted as a trace record.
func (c *Cluster) startBoot(m *Machine, spec *ProvSpec, attempt int) {
	boot := spec.BootMin
	if spec.BootMax > spec.BootMin {
		boot += sim.Duration(c.K.Rand().Int63n(int64(spec.BootMax-spec.BootMin) + 1))
	}
	failed := spec.FailProb > 0 && c.K.Rand().Float64() < spec.FailProb
	c.K.After(boot, func() {
		if !m.bootPending || m.failed || m.decommed {
			return // stale boot timer: the machine was torn down mid-boot
		}
		if !failed {
			c.finishBoot(m)
			return
		}
		c.tr.Emit(trace.Record{Kind: trace.KindProvFail, Server: -1, Target: int32(m.ID), Rule: -1,
			Value: float64(attempt), Detail: spec.Class.String()})
		if attempt+1 >= provAttempts {
			c.abortBoot(m)
			return
		}
		delay := backoff(attempt)
		c.tr.Emit(trace.Record{Kind: trace.KindProvRetry, Server: -1, Target: int32(m.ID), Rule: -1,
			Value: float64(delay), Detail: spec.Class.String()})
		c.K.After(delay, func() {
			if !m.bootPending || m.failed || m.decommed {
				return
			}
			c.startBoot(m, spec, attempt+1)
		})
	})
}

// finishBoot brings a pending machine up and notifies its provisioner.
// Stale timers — the machine crashed or was decommissioned during boot —
// are no-ops.
func (c *Cluster) finishBoot(m *Machine) {
	if !m.bootPending || m.failed || m.decommed {
		return
	}
	m.up = true
	m.bootPending = false
	c.tr.Emit(trace.Record{Kind: trace.KindMachineUp, Server: -1, Target: int32(m.ID), Rule: -1})
	done := m.bootDone
	m.bootDone = nil
	if done != nil {
		done(m, true)
	}
}

// abortBoot permanently fails a pending provision: the machine never
// enters service and can never be repaired into it.
func (c *Cluster) abortBoot(m *Machine) {
	m.bootPending = false
	m.decommed = true
	done := m.bootDone
	m.bootDone = nil
	if done != nil {
		done(m, false)
	}
}
