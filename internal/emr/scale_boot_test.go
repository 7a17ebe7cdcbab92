package emr

import (
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// Regression (booting-counter leak): a machine crashed mid-boot must
// decrement the scaler's booting counter. The old code only decremented
// on onUp, so a provision that never reached Up suppressed scale-out
// permanently.
func TestMidBootCrashDoesNotStarveScaleOut(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{
		Period: sim.Second, ScaleOut: true,
		InstanceType: cluster.InstanceType{Name: "t", VCPUs: 1, MemMB: 4096, NetMbps: 1000, Boot: 10 * sim.Second, SpeedFac: 1},
	})

	// A single-GEM vote always corroborates itself; demand one machine.
	m.tryScaleOut(m.gems[0], 1, 0)
	if m.booting != 1 {
		t.Fatalf("booting = %d after scale-out, want 1", m.booting)
	}
	booted := e.c.Machines()[len(e.c.Machines())-1]

	// Crash the machine halfway through its boot.
	e.k.Run(e.k.Now() + sim.Time(5*sim.Second))
	if !e.c.Fail(booted.ID) {
		t.Fatal("Fail refused the booting machine")
	}
	if m.booting != 0 {
		t.Fatalf("booting = %d after mid-boot crash, want 0 (counter leaked)", m.booting)
	}
	if m.Stats.FailedProvisions != 1 {
		t.Errorf("FailedProvisions = %d, want 1", m.Stats.FailedProvisions)
	}

	// Scale-out must still be able to provision: the leaked counter used
	// to satisfy `booting < need` forever.
	before := e.c.Provisions()
	m.tryScaleOut(m.gems[0], 1, 0)
	if e.c.Provisions() != before+1 {
		t.Fatalf("scale-out starved: provisions stayed at %d", before)
	}
	e.k.RunUntilIdle()
	if m.booting != 0 {
		t.Errorf("booting = %d after boot completed, want 0", m.booting)
	}
}

// Scale-out through a provisioning spectrum consumes the preferred class
// first (policy provclass order), falls to the next class when the warm
// pool is exhausted, and a permanently failed provision also releases the
// booting slot.
func TestScaleOutWalksProvisioningSpectrum(t *testing.T) {
	e := newEnv(1, 2, 1)
	pol := epl.MustParse(`server.cpu.perc > 80 => provclass({warm, container}); server.cpu.perc > 80 => balance({Worker}, cpu);`)
	m := New(e.k, e.c, e.rt, e.prof, pol, Config{
		Period: sim.Second, ScaleOut: true,
		InstanceType: cluster.M1Small,
		ProvSpecs: []cluster.ProvSpec{
			{Class: cluster.VM, BootMin: 30 * sim.Second, Capacity: -1},
			{Class: cluster.WarmPool, BootMin: 100 * sim.Millisecond, Capacity: 2},
			{Class: cluster.Container, BootMin: 2 * sim.Second, Capacity: -1},
		},
	})
	m.provPref = []cluster.ProvClass{cluster.WarmPool, cluster.Container}

	for i := 0; i < 4; i++ {
		if mach := m.provisionNext(); mach == nil {
			t.Fatalf("provision %d refused", i)
		}
	}
	machines := e.c.Machines()
	got := make([]cluster.ProvClass, 0, 4)
	for _, mach := range machines[2:] { // skip the two seed machines
		got = append(got, mach.ProvClass())
	}
	want := []cluster.ProvClass{cluster.WarmPool, cluster.WarmPool, cluster.Container, cluster.Container}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("provision %d used class %v, want %v (order %v)", i, got[i], want[i], got)
		}
	}
	if specs := m.provSpecs; specs[1].Capacity != 0 {
		t.Errorf("warm pool capacity = %d, want 0", specs[1].Capacity)
	}
}
