package metrics

// SLOTracker integrates SLO-violation time: feed it a stream of
// (time, value) observations and a threshold, and it accumulates the
// seconds during which the observed signal exceeded the threshold,
// treating the signal as a step function between observations (each
// observation's value holds until the next). Naskos et al. motivate
// quantifying elasticity guarantees this way — violation *time*, not just
// convergence plots.
//
// Time is a plain float64 (seconds) so the package stays free of
// simulator imports; callers pass sim.Time.Seconds().
type SLOTracker struct {
	Threshold float64

	lastT     float64
	seen      bool
	violating bool
	violSec   float64
	episodes  int
	closed    bool
}

// NewSLOTracker creates a tracker for the given violation threshold:
// observed values strictly above it count as violating.
func NewSLOTracker(threshold float64) *SLOTracker {
	return &SLOTracker{Threshold: threshold}
}

// Observe records the signal's value at time t (seconds). Observations
// must be fed in nondecreasing time order. Observations after Finalize
// are discarded: the run is over, and straggler samples (e.g. replies
// still in flight when the simulation deadline hit) must not reopen the
// integration window.
func (s *SLOTracker) Observe(t, v float64) {
	if s.closed {
		return
	}
	if s.seen {
		s.accumulate(t)
	}
	wasViolating := s.violating
	s.lastT, s.seen = t, true
	s.violating = v > s.Threshold
	if s.violating && !wasViolating {
		s.episodes++
	}
}

// finish flushes the integration window through time t, crediting the
// interval since the last observation. Idempotent for the same t; the
// signal is still live afterwards (later Observes keep integrating).
// Finalize is finish plus the seal.
func (s *SLOTracker) finish(t float64) {
	if s.closed {
		return
	}
	if s.seen {
		s.accumulate(t)
		s.lastT = t
	}
}

// Finalize closes the tracker at end of run: a violation window still
// open at now is credited through now (without this, a run ending
// mid-violation under-counts by the entire open interval), and the
// tracker is sealed — further Observe or Finalize calls are
// no-ops, so a stray post-deadline sample or a repeated shutdown path
// cannot inflate the integral.
func (s *SLOTracker) Finalize(now float64) {
	s.finish(now)
	s.closed = true
}

func (s *SLOTracker) accumulate(t float64) {
	if s.violating && t > s.lastT {
		s.violSec += t - s.lastT
	}
}

// ViolationSeconds reports the accumulated time the signal spent above
// the threshold (through the last Observe or Finalize).
func (s *SLOTracker) ViolationSeconds() float64 { return s.violSec }

// Episodes reports how many distinct violation episodes began (entries
// from compliant to violating).
func (s *SLOTracker) Episodes() int { return s.episodes }
