package sim

import (
	"fmt"
	"sort"
)

// This file holds the order-contract reference the differential tests and
// FuzzKernelOrder compare the kernel with: sortKernel, a kernel whose queue
// is a slice kept sorted on the (at, seq) key, and the op programs that drive it and the real kernel through the same calls.

// orderKernel is the part of the Kernel API an op program drives.
type orderKernel interface {
	Now() Time
	Pending() int
	At(t Time, fn func())
	After(d Duration, fn func())
	afterFunc(d Duration, fn func()) orderTimer
	Run(until Time)
	Step() bool
}

type orderTimer interface {
	Stop() bool
	Reset(d Duration) bool
}

// realKernel adapts Kernel.AfterFunc's concrete *Timer to orderTimer.
type realKernel struct{ *Kernel }

func (r realKernel) afterFunc(d Duration, fn func()) orderTimer { return r.AfterFunc(d, fn) }

type sortEvent struct {
	at  Time
	seq uint64
	fn  func()
	tm  *sortTimer
}

func (e *sortEvent) less(o *sortEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// sortKernel restates the kernel's contract with nothing to get wrong: one
// sorted slice, binary-search insert, pop from the front.
type sortKernel struct {
	now   Time
	queue []*sortEvent
	seq   uint64
}

func (k *sortKernel) Now() Time    { return k.now }
func (k *sortKernel) Pending() int { return len(k.queue) }

func (k *sortKernel) schedule(at Time, fn func(), tm *sortTimer) *sortEvent {
	if at < k.now {
		at = k.now
	}
	k.seq++
	e := &sortEvent{at: at, seq: k.seq, fn: fn, tm: tm}
	i := sort.Search(len(k.queue), func(i int) bool { return e.less(k.queue[i]) })
	k.queue = append(k.queue, nil)
	copy(k.queue[i+1:], k.queue[i:])
	k.queue[i] = e
	return e
}

func (k *sortKernel) unqueue(e *sortEvent) {
	for i, q := range k.queue {
		if q == e {
			k.queue = append(k.queue[:i], k.queue[i+1:]...)
			return
		}
	}
	panic("sortKernel: event not queued")
}

func clampDelay(d Duration) Duration {
	if d < 0 {
		return 0
	}
	return d
}

func (k *sortKernel) At(t Time, fn func())        { k.schedule(t, fn, nil) }
func (k *sortKernel) After(d Duration, fn func()) { k.At(k.now+Time(clampDelay(d)), fn) }

// sortTimer follows Timer's life: pending while ev is set, live until it
// fires without being re-armed or is stopped.
type sortTimer struct {
	k        *sortKernel
	fn       func()
	ev       *sortEvent
	released bool
}

func (k *sortKernel) afterFunc(d Duration, fn func()) orderTimer {
	t := &sortTimer{k: k, fn: fn}
	t.ev = k.schedule(k.now+Time(clampDelay(d)), nil, t)
	return t
}

func (t *sortTimer) Stop() bool {
	if t.released {
		return false
	}
	pending := t.ev != nil
	if pending {
		t.k.unqueue(t.ev)
		t.ev = nil
	}
	t.released = true
	return pending
}

func (t *sortTimer) Reset(d Duration) bool {
	if t.released {
		return false
	}
	if t.ev != nil {
		t.k.unqueue(t.ev)
	}
	t.ev = t.k.schedule(t.k.now+Time(clampDelay(d)), nil, t)
	return true
}

func (k *sortKernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.queue[0]
	k.queue = k.queue[1:]
	k.now = e.at
	if t := e.tm; t != nil {
		t.ev = nil
		t.fn()
		if !t.released && t.ev == nil {
			t.released = true
		}
	} else {
		e.fn()
	}
	return true
}

func (k *sortKernel) Run(until Time) {
	for len(k.queue) > 0 && k.queue[0].at <= until {
		k.Step()
	}
	if k.now < until {
		k.now = until
	}
}

// An op is one kernel call. Scheduling ops give the callback they schedule
// the next id; when callback id fires it records itself and runs
// onFire[id % len(onFire)], so a program nests scheduling (and Stop/Reset)
// inside events to any depth its budget allows.
type opKind uint8

const (
	opAfter opKind = iota
	opAt
	opTimer // AfterFunc; the handle joins the program's timer list
	opStop  // Stop timer tm of the list
	opReset // Reset timer tm of the list to d from now
	opRearm // inside a timer's own callback: Reset it to d from now
	opRun   // top level only: Run(now + d)
	opStep  // top level only
)

type op struct {
	kind opKind
	d    Duration
	at   Time
	tm   int
}

type program struct {
	top    []op
	onFire [][]op
	budget int // schedulings allowed in all, so every program ends
}

// rec is one observation: a fire, the result of a Stop or Reset, or the
// clock and queue length after a top-level Run or Step.
type rec struct {
	what    string
	id      int
	now     Time
	ok      bool
	pending int
}

func (r rec) String() string {
	return fmt.Sprintf("%s#%d@%d ok=%v pending=%d", r.what, r.id, r.now, r.ok, r.pending)
}

// run drives k through the program, drains it, and returns what it saw.
func (p program) run(k orderKernel) []rec {
	var (
		log       []rec
		timers    []orderTimer
		scheduled int
		exec      func(ops []op, self orderTimer, top bool)
	)
	note := func(what string, id int, ok bool) {
		log = append(log, rec{what, id, k.Now(), ok, k.Pending()})
	}
	callback := func(id int, self *orderTimer) func() {
		return func() {
			note("fire", id, true)
			if len(p.onFire) > 0 {
				var s orderTimer
				if self != nil {
					s = *self
				}
				exec(p.onFire[id%len(p.onFire)], s, false)
			}
		}
	}
	exec = func(ops []op, self orderTimer, top bool) {
		for _, o := range ops {
			switch o.kind {
			case opStop:
				if len(timers) > 0 {
					i := o.tm % len(timers)
					note("stop", i, timers[i].Stop())
				}
				continue
			case opRun:
				if top {
					k.Run(k.Now() + Time(o.d))
					note("run", 0, true)
				}
				continue
			case opStep:
				if top {
					note("step", 0, k.Step())
				}
				continue
			}
			if scheduled >= p.budget {
				continue
			}
			id := scheduled
			scheduled++
			switch o.kind {
			case opAfter:
				k.After(o.d, callback(id, nil))
			case opAt:
				k.At(o.at, callback(id, nil))
			case opTimer:
				t := new(orderTimer)
				*t = k.afterFunc(o.d, callback(id, t))
				timers = append(timers, *t)
			case opReset:
				if len(timers) > 0 {
					i := o.tm % len(timers)
					note("reset", i, timers[i].Reset(o.d))
				}
			case opRearm:
				if self != nil {
					note("rearm", id, self.Reset(o.d))
				}
			}
		}
	}
	exec(p.top, nil, true)
	for k.Step() {
	}
	note("end", scheduled, true)
	return log
}

// diverge runs p on the kernel and on the sorted reference and describes
// the first observation they disagree on, or returns "".
func (p program) diverge() string {
	got, want := p.run(realKernel{New(1)}), p.run(&sortKernel{})
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("observation %d: kernel %v, reference %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("kernel made %d observations, reference %d", len(got), len(want))
	}
	return ""
}
