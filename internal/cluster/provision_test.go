package cluster

import (
	"fmt"
	"testing"

	"plasma/internal/sim"
)

// Regression (boot-timer lifecycle): crashing a machine mid-boot must be
// possible, must report the outcome to the provisioner, and must turn the
// pending boot timer into a no-op. The old code refused Fail on a booting
// machine (it required Up()) and its boot callback unconditionally set
// up=true even after a teardown.
func TestFailMidBootMakesBootTimerStale(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, M1Small)

	upFired := false
	m := c.ProvisionClass(M1Small, vmSpec(M1Small), func(_ *Machine, ok bool) { upFired = ok })
	if m == nil {
		t.Fatal("ProvisionClass returned nil")
	}
	if !m.bootPending {
		t.Fatal("provisioned machine should report Booting")
	}

	// Crash halfway through the boot delay.
	k.Run(k.Now() + sim.Time(M1Small.Boot/2))
	if !c.Fail(m.ID) {
		t.Fatal("Fail refused a booting machine")
	}
	if m.bootPending {
		t.Error("crashed machine still reports Booting")
	}

	// Let the original boot timer fire: it must be a no-op.
	k.RunUntilIdle()
	if m.Up() {
		t.Error("stale boot timer brought a crashed machine up")
	}
	if upFired {
		t.Error("onUp fired for a machine crashed mid-boot")
	}
	if c.UpCount() != 1 {
		t.Errorf("UpCount = %d, want 1 (only the seed machine)", c.UpCount())
	}
	// The provision is gone for good: no resurrection path.
	if c.Repair(m.ID) {
		t.Error("Repair resurrected a machine that never booted")
	}
}

// Regression: decommissioning a machine mid-boot (the fleet shrank while
// it was booting) cancels the provision and reports failure to the
// outcome callback; the stale boot timer is a no-op.
func TestDecommissionMidBootCancelsProvision(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, M1Small)

	var gotOK *bool
	m := c.ProvisionClass(M1Small, vmSpec(M1Small), func(_ *Machine, ok bool) { gotOK = &ok })
	if m == nil {
		t.Fatal("ProvisionClass returned nil")
	}
	k.Run(k.Now() + sim.Time(M1Small.Boot/2))
	if err := c.Decommission(m.ID); err != nil {
		t.Fatalf("Decommission mid-boot: %v", err)
	}
	if gotOK == nil || *gotOK {
		t.Fatal("outcome callback should have fired with ok=false")
	}
	k.RunUntilIdle()
	if m.Up() {
		t.Error("stale boot timer brought a decommissioned machine up")
	}
	if !m.decommed {
		t.Error("machine should be decommissioned")
	}
}

// The single-VM-class spec is the paper's constant-boot provisioner: up at
// typ.Boot, outcome ok=true, and not one draw from the kernel's stream (an
// arm that sets no spectrum must keep its event sequence).
func TestProvisionClassVMSpecConstantBoot(t *testing.T) {
	k, ref := sim.New(1), sim.New(1)
	c := New(k, 0, M1Small)
	var upAt sim.Time
	ok := false
	m := c.ProvisionClass(M5Large, vmSpec(M5Large), func(_ *Machine, o bool) { upAt, ok = k.Now(), o })
	if m == nil {
		t.Fatal("ProvisionClass returned nil")
	}
	k.RunUntilIdle()
	if !ok {
		t.Fatal("outcome callback did not report success")
	}
	if upAt != sim.Time(M5Large.Boot) {
		t.Errorf("came up at %v, want %v", upAt, sim.Time(M5Large.Boot))
	}
	if !m.Up() || m.ProvClass() != VM {
		t.Errorf("up=%v class=%v, want an Up VM", m.Up(), m.ProvClass())
	}
	if got, want := k.Rand().Int63(), ref.Rand().Int63(); got != want {
		t.Error("a constant-boot provision consumed randomness")
	}
}

// A warm pool's finite capacity depletes; exhausted pools refuse to
// provision without side effects.
func TestWarmPoolCapacityDepletes(t *testing.T) {
	k := sim.New(1)
	c := New(k, 0, M1Small)
	spec := ProvSpec{Class: WarmPool, BootMin: 100 * sim.Millisecond, Capacity: 2}

	for i := 0; i < 2; i++ {
		if m := c.ProvisionClass(M1Small, &spec, nil); m == nil {
			t.Fatalf("warm provision %d refused with capacity left", i)
		}
	}
	if spec.Capacity != 0 {
		t.Fatalf("Capacity = %d, want 0", spec.Capacity)
	}
	before := c.Provisions()
	if m := c.ProvisionClass(M1Small, &spec, nil); m != nil {
		t.Fatal("exhausted warm pool still provisioned")
	}
	if c.Provisions() != before {
		t.Error("refused provision still counted")
	}
	k.RunUntilIdle()
	if c.UpCount() != 2 {
		t.Errorf("UpCount = %d, want 2", c.UpCount())
	}
}

// Boot times are drawn uniformly from [BootMin, BootMax].
func TestProvisionBootWindow(t *testing.T) {
	k := sim.New(7)
	c := New(k, 0, M1Small)
	spec := ProvSpec{Class: Container, BootMin: 2 * sim.Second, BootMax: 5 * sim.Second, Capacity: -1}
	var ups []sim.Time
	for i := 0; i < 20; i++ {
		c.ProvisionClass(M1Small, &spec, func(*Machine, bool) { ups = append(ups, k.Now()) })
	}
	k.RunUntilIdle()
	if len(ups) != 20 {
		t.Fatalf("%d machines came up, want 20", len(ups))
	}
	varied := false
	for _, at := range ups {
		if at < sim.Time(spec.BootMin) || at > sim.Time(spec.BootMax) {
			t.Errorf("boot finished at %v, outside [%v, %v]", at, spec.BootMin, spec.BootMax)
		}
		if at != ups[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("20 boot draws all identical; distribution not applied")
	}
}

// A failing class retries with capped exponential backoff and eventually
// either succeeds or reports permanent failure; either way the outcome
// callback fires exactly once per provision.
func TestProvisionFailureRetriesAndExhaustion(t *testing.T) {
	k := sim.New(3)
	c := New(k, 0, M1Small)
	spec := ProvSpec{Class: VM, BootMin: sim.Second, FailProb: 1.0, Capacity: -1}
	outcomes := 0
	okCount := 0
	m := c.ProvisionClass(M1Small, &spec, func(_ *Machine, ok bool) {
		outcomes++
		if ok {
			okCount++
		}
	})
	k.RunUntilIdle()
	if outcomes != 1 {
		t.Fatalf("outcome callback fired %d times, want 1", outcomes)
	}
	if okCount != 0 {
		t.Fatal("FailProb=1 provision reported success")
	}
	if m.Up() {
		t.Error("permanently failed provision is Up")
	}
	if !m.decommed {
		t.Error("permanently failed provision should be decommissioned")
	}
	// provAttempts boots of 1s each, with a doubling backoff between them.
	want := sim.Time(provAttempts * sim.Second)
	for attempt := 0; attempt+1 < provAttempts; attempt++ {
		want += sim.Time(backoff(attempt))
	}
	if k.Now() != want {
		t.Errorf("exhaustion at %v, want %v", k.Now(), want)
	}
}

// Two same-seed runs of a flaky provisioning burst produce identical
// outcome sequences (the spectrum is deterministic).
func TestProvisionClassDeterministic(t *testing.T) {
	run := func() string {
		k := sim.New(11)
		c := New(k, 0, M1Small)
		specs := DefaultProvSpecs()
		out := ""
		for i := 0; i < 12; i++ {
			i := i
			s := &specs[i%len(specs)]
			if m := c.ProvisionClass(M1Small, s, func(_ *Machine, ok bool) {
				out += fmt.Sprintf("%d:%v@%d ", i, ok, k.Now())
			}); m == nil {
				out += fmt.Sprintf("%d:refused ", i)
			}
		}
		k.RunUntilIdle()
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed provisioning diverged:\n%s\nvs\n%s", a, b)
	}
}
