package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/profile"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// span is one call the harness made into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"` // since the pass began
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory. A nil *spanLog is the
// untraced pass: in runs fn and records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // ids of the spans now open, innermost last
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// in runs fn inside a span charged to layer.
func (l *spanLog) in(layer, name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	id := len(l.spans) + 1
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		StartNS: time.Since(l.t0).Nanoseconds()})
	l.open = append(l.open, id)
	fn()
	l.open = l.open[:len(l.open)-1]
	l.spans[id-1].EndNS = time.Since(l.t0).Nanoseconds()
}

// total sums the durations of the spans called name, in seconds.
func (l *spanLog) total(name string) float64 {
	var ns int64
	for _, s := range l.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// selfSeconds reports each layer's self time: its spans' durations minus
// the part their child spans cover.
func selfSeconds(spans []span) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Layer] += float64(self[i]) / 1e9
	}
	return out
}

// write stores the spans as JSONL, one span per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// hookSampleEvery is how often timedHook reads the clock: timing every call
// would cost more than the hooks themselves and push the traced run's
// overhead past what spans.overhead_pct allows.
const hookSampleEvery = 8

// timedHook decorates the real profiler where the actor runtime calls it,
// inside Kernel.Run where the harness has no call boundary of its own. It
// counts every hook call and times one in hookSampleEvery.
type timedHook struct {
	inner   *profile.Profiler
	calls   int64
	msgs    int64
	sampled time.Duration
}

func (h *timedHook) timed(fn func()) {
	h.calls++
	if h.calls%hookSampleEvery != 0 {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	h.sampled += time.Since(t0)
}

func (h *timedHook) OnMessage(srv cluster.MachineID, callerType string, caller, callee actor.Ref, calleeType, method string, size int64) {
	h.msgs++
	h.timed(func() { h.inner.OnMessage(srv, callerType, caller, callee, calleeType, method, size) })
}

func (h *timedHook) OnCPU(srv cluster.MachineID, a actor.Ref, typ string, cost sim.Duration) {
	h.timed(func() { h.inner.OnCPU(srv, a, typ, cost) })
}

func (h *timedHook) OnNet(srv cluster.MachineID, a actor.Ref, typ string, size int64) {
	h.timed(func() { h.inner.OnNet(srv, a, typ, size) })
}

// OnSpawn keeps the runtime pre-sizing the profiler's per-actor tables.
func (h *timedHook) OnSpawn(srv cluster.MachineID, a actor.Ref) { h.inner.OnSpawn(srv, a) }

// selfSeconds scales the sampled time up to all calls.
func (h *timedHook) selfSeconds() float64 {
	return h.sampled.Seconds() * hookSampleEvery
}

// hostSink is the harness's trace.Sink. It counts records by kind, stamps
// each with the host clock to measure the control plane's host time, and
// passes it on to inner when the workload keeps its trace.
type hostSink struct {
	inner trace.Sink // nil when the workload keeps no trace
	kinds map[trace.Kind]int64
	total int64
	// transferBytes sums the state sizes of the migrations that began.
	transferBytes float64

	// A burst is a run of records emitted at one virtual instant: the EMR's
	// tick, GEM evaluation and execution phases each run inside a single
	// kernel event, so the host time between a burst's first and last
	// record is control-plane work with no application event in between.
	burstAt    sim.Time
	burstStart time.Time
	burstLast  time.Time
	control    time.Duration
}

func newHostSink(inner trace.Sink) *hostSink {
	return &hostSink{inner: inner, kinds: map[trace.Kind]int64{}, burstAt: -1}
}

func (s *hostSink) Emit(r trace.Record) {
	now := time.Now()
	if r.At != s.burstAt {
		s.control += s.burstLast.Sub(s.burstStart)
		s.burstAt, s.burstStart = r.At, now
	}
	s.burstLast = now
	s.kinds[r.Kind]++
	s.total++
	if r.Kind == trace.KindTransfer {
		s.transferBytes += r.Value
	}
	if s.inner != nil {
		s.inner.Emit(r)
	}
}

// controlSeconds closes the open burst and reports the total.
func (s *hostSink) controlSeconds() float64 {
	return (s.control + s.burstLast.Sub(s.burstStart)).Seconds()
}
