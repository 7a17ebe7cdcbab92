package cluster

import (
	"testing"

	"plasma/internal/sim"
	"plasma/internal/trace"
)

// These tests audit the capped-backoff retry path against teardown (the
// same family as the mid-boot fixes of the boot timer itself): a retry
// timer armed before Decommission or Fail must go stale rather than
// provisioning into a dead pool. The guards in startBoot's boot and retry
// closures already close this hole — these tests pin it shut.

// retrySpec always fails its boot attempts, so the first attempt arms a
// backoff retry timer deterministically (boot done at 100ms, retry at
// 100ms + 1s).
func retrySpec() *ProvSpec {
	return &ProvSpec{
		Class:    Container,
		BootMin:  100 * sim.Millisecond,
		BootMax:  100 * sim.Millisecond, // deterministic: no boot-time draw
		FailProb: 1,
		Capacity: -1,
	}
}

// provisionIntoBackoff provisions through retrySpec and advances the clock
// into the middle of the first backoff window, returning the machine, a
// pointer to the recorded outcome (nil until the callback fires), a call
// counter, and a ring capturing the provisioning trace.
func provisionIntoBackoff(t *testing.T, k *sim.Kernel, c *Cluster) (*Machine, *[]bool, *trace.Ring) {
	t.Helper()
	ring := trace.NewRing(64)
	c.SetTracer(trace.New(ring))
	outcomes := &[]bool{}
	m := c.ProvisionClass(M1Small, retrySpec(), func(_ *Machine, ok bool) { *outcomes = append(*outcomes, ok) })
	if m == nil {
		t.Fatal("ProvisionClass returned nil")
	}
	// Past the failed first attempt (100ms), into the backoff (until 1.1s).
	k.Run(600 * sim.Time(sim.Millisecond))
	if len(*outcomes) != 0 {
		t.Fatalf("outcome fired during backoff: %v", *outcomes)
	}
	if !m.Booting() {
		t.Fatal("machine should still be boot-pending while awaiting retry")
	}
	if got := countKind(ring, trace.KindProvFail); got != 1 {
		t.Fatalf("ProvFail records before teardown = %d, want 1", got)
	}
	if got := countKind(ring, trace.KindProvRetry); got != 1 {
		t.Fatalf("ProvRetry records before teardown = %d, want 1", got)
	}
	return m, outcomes, ring
}

func countKind(r *trace.Ring, k trace.Kind) int {
	n := 0
	for _, rec := range r.Records() {
		if rec.Kind == k {
			n++
		}
	}
	return n
}

// Decommission during the backoff window: the armed retry timer must go
// stale — no further boot attempts, no resurrection, exactly one
// ok=false outcome (at decommission time, not at retry exhaustion).
func TestDecommissionDuringBackoffStalesRetry(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, M1Small)
	m, outcomes, ring := provisionIntoBackoff(t, k, c)

	if err := c.Decommission(m.ID); err != nil {
		t.Fatalf("Decommission during backoff: %v", err)
	}
	if len(*outcomes) != 1 || (*outcomes)[0] {
		t.Fatalf("outcomes after Decommission = %v, want exactly one false", *outcomes)
	}

	k.RunUntilIdle() // the retry timer fires at 1.1s and must be a no-op
	if m.Up() {
		t.Error("stale retry timer brought a decommissioned machine up")
	}
	if m.Booting() {
		t.Error("decommissioned machine still reports Booting")
	}
	if len(*outcomes) != 1 {
		t.Errorf("outcome fired again after teardown: %v", *outcomes)
	}
	if c.UpCount() != 1 {
		t.Errorf("UpCount = %d, want 1 (only the seed machine)", c.UpCount())
	}
	// The stale retry must not have re-attempted: no new failure/retry
	// records beyond the single pre-teardown attempt.
	if got := countKind(ring, trace.KindProvFail); got != 1 {
		t.Errorf("ProvFail records after teardown = %d, want 1 (retry ran despite teardown)", got)
	}
	if got := countKind(ring, trace.KindProvRetry); got != 1 {
		t.Errorf("ProvRetry records after teardown = %d, want 1 (retry re-armed despite teardown)", got)
	}
}

// Fail (crash) during the backoff window: same staleness contract as
// Decommission, plus no repair path back into service for a machine that
// never finished booting.
func TestFailDuringBackoffStalesRetry(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, M1Small)
	m, outcomes, ring := provisionIntoBackoff(t, k, c)

	if !c.Fail(m.ID) {
		t.Fatal("Fail refused a machine awaiting its boot retry")
	}
	if len(*outcomes) != 1 || (*outcomes)[0] {
		t.Fatalf("outcomes after Fail = %v, want exactly one false", *outcomes)
	}

	k.RunUntilIdle()
	if m.Up() {
		t.Error("stale retry timer brought a crashed machine up")
	}
	if len(*outcomes) != 1 {
		t.Errorf("outcome fired again after crash: %v", *outcomes)
	}
	if got := countKind(ring, trace.KindProvFail); got != 1 {
		t.Errorf("ProvFail records after crash = %d, want 1 (retry ran despite crash)", got)
	}
	if c.Repair(m.ID) {
		t.Error("Repair resurrected a machine that never finished booting")
	}
	if c.UpCount() != 1 {
		t.Errorf("UpCount = %d, want 1 (only the seed machine)", c.UpCount())
	}
}

// Control: with no teardown, the armed retry keeps trying and exhausts
// provAttempts — proving the staleness above comes from the teardown guards,
// not from the retry path being inert.
func TestBackoffRetriesExhaustWithoutTeardown(t *testing.T) {
	k := sim.New(1)
	c := New(k, 1, M1Small)
	m, outcomes, ring := provisionIntoBackoff(t, k, c)

	k.RunUntilIdle()
	if got := countKind(ring, trace.KindProvFail); got != provAttempts {
		t.Errorf("ProvFail records = %d, want %d (every attempt fails)", got, provAttempts)
	}
	if got := countKind(ring, trace.KindProvRetry); got != provAttempts-1 {
		t.Errorf("ProvRetry records = %d, want %d (retries between the attempts)", got, provAttempts-1)
	}
	if len(*outcomes) != 1 || (*outcomes)[0] {
		t.Fatalf("outcomes = %v, want exactly one false (permanent exhaustion)", *outcomes)
	}
	if m.Up() || m.Booting() {
		t.Error("exhausted provision left the machine up or boot-pending")
	}
}
