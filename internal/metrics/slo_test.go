package metrics

import (
	"math"
	"testing"
)

func TestSLOTrackerIntegratesViolationTime(t *testing.T) {
	s := NewSLOTracker(100) // e.g. 100 ms latency SLO
	s.Observe(0, 50)        // compliant 0..10
	s.Observe(10, 150)      // violating 10..25
	s.Observe(25, 80)       // compliant 25..40
	s.Observe(40, 200)      // violating 40..45
	s.finish(45)

	if got := s.ViolationSeconds(); math.Abs(got-20) > 1e-9 {
		t.Errorf("ViolationSeconds = %v, want 20", got)
	}
	if s.Episodes() != 2 {
		t.Errorf("Episodes = %d, want 2", s.Episodes())
	}
}

func TestSLOTrackerNoViolations(t *testing.T) {
	s := NewSLOTracker(100)
	s.Observe(0, 10)
	s.Observe(5, 99)
	s.finish(10)
	if s.ViolationSeconds() != 0 || s.Episodes() != 0 {
		t.Errorf("clean signal reported %v violation-seconds, %d episodes",
			s.ViolationSeconds(), s.Episodes())
	}
}

func TestSLOTrackerBoundaryIsCompliant(t *testing.T) {
	s := NewSLOTracker(100)
	s.Observe(0, 100) // exactly at the threshold: compliant
	s.finish(10)
	if s.ViolationSeconds() != 0 {
		t.Errorf("threshold-equal value counted as violating")
	}
}

func TestSLOTrackerEmptyFinish(t *testing.T) {
	s := NewSLOTracker(1)
	s.finish(100) // no observations: nothing to integrate
	if s.ViolationSeconds() != 0 {
		t.Errorf("empty tracker reported violations")
	}
}

// A violation window still open at end of run must be credited through the
// Finalize instant — without the flush, the whole open interval is lost
// (this is the end-of-run under-count regression).
func TestSLOTrackerFinalizeFlushesOpenWindow(t *testing.T) {
	s := NewSLOTracker(100)
	s.Observe(0, 150) // violating from t=0, never observed again
	if got := s.ViolationSeconds(); got != 0 {
		t.Fatalf("pre-flush ViolationSeconds = %v, want 0 (nothing credited yet)", got)
	}
	s.Finalize(30)
	if got := s.ViolationSeconds(); math.Abs(got-30) > 1e-9 {
		t.Errorf("ViolationSeconds after Finalize(30) = %v, want 30", got)
	}
}

// Finalize seals the tracker: repeating it later, or re-flushing via
// finish, must not keep integrating past the end of the run.
func TestSLOTrackerFinalizeIsIdempotent(t *testing.T) {
	s := NewSLOTracker(100)
	s.Observe(0, 150)
	s.Finalize(30)
	s.Finalize(45)
	s.finish(60)
	if got := s.ViolationSeconds(); math.Abs(got-30) > 1e-9 {
		t.Errorf("ViolationSeconds after repeated finalization = %v, want 30", got)
	}
}

// Straggler observations after Finalize (e.g. replies still in flight at
// the simulation deadline) must not reopen the integration window.
func TestSLOTrackerObserveAfterFinalizeIgnored(t *testing.T) {
	s := NewSLOTracker(100)
	s.Observe(0, 150)
	s.Finalize(10)
	s.Observe(20, 50)  // a kept straggler would close the episode...
	s.Observe(30, 500) // ...open a second one, and credit 20..40
	s.Finalize(40)
	if got := s.ViolationSeconds(); math.Abs(got-10) > 1e-9 {
		t.Errorf("ViolationSeconds = %v, want 10 (post-finalize samples discarded)", got)
	}
	if s.Episodes() != 1 {
		t.Errorf("Episodes = %d, want 1 (post-finalize samples discarded)", s.Episodes())
	}
}

// The unsealed flush is a live checkpoint: integration continues across it.
func TestSLOTrackerFinishKeepsIntegrating(t *testing.T) {
	s := NewSLOTracker(100)
	s.Observe(0, 150)
	s.finish(10)
	if got := s.ViolationSeconds(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("checkpoint ViolationSeconds = %v, want 10", got)
	}
	s.Observe(20, 150) // still violating 10..20 and beyond
	s.Finalize(25)
	if got := s.ViolationSeconds(); math.Abs(got-25) > 1e-9 {
		t.Errorf("final ViolationSeconds = %v, want 25", got)
	}
}
