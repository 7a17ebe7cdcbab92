package sim

import (
	"fmt"
	"sort"
)

// This file holds the order-contract reference the differential tests and
// FuzzKernelOrder compare the kernel with: sortKernel, a kernel whose queue
// is a slice kept sorted on the (at, seq) key, and the op programs that
// drive it and the real kernel through the same calls.

// orderKernel is the Kernel API an op program drives.
type orderKernel interface {
	Now() Time
	Pending() int
	At(t Time, fn func())
	After(d Duration, fn func())
	Every(d Duration, fn func() bool)
	Run(until Time)
	Step() bool
}

type sortEvent struct {
	at  Time
	seq uint64
	fn  func()
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

func (k *sortKernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	e := &sortEvent{at: t, seq: k.seq, fn: fn}
	i := sort.Search(len(k.queue), func(i int) bool { return e.less(k.queue[i]) })
	k.queue = append(k.queue, nil)
	copy(k.queue[i+1:], k.queue[i:])
	k.queue[i] = e
}

func (k *sortKernel) After(d Duration, fn func()) { k.At(k.now+Time(max(d, 0)), fn) }

// Every follows Kernel.Every's contract: the period floored to 1 µs, and
// each next tick scheduled afresh once fn has returned true.
func (k *sortKernel) Every(d Duration, fn func() bool) {
	d = max(d, Microsecond)
	var tick func()
	tick = func() {
		if fn() {
			k.After(d, tick)
		}
	}
	k.After(d, tick)
}

func (k *sortKernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.queue[0]
	k.queue = k.queue[1:]
	k.now = e.at
	e.fn()
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
// the next id; whenever callback id fires it records itself and runs
// onFire[id % len(onFire)], so a program nests scheduling inside events to
// any depth its budget allows.
type opKind uint8

const (
	opAfter opKind = iota
	opAt
	opEvery // Every(d) whose callback returns true ticks%8 times, then false
	opRun   // top level only: Run(now + d)
	opStep  // top level only
)

type op struct {
	kind  opKind
	d     Duration
	at    Time
	ticks int
}

type program struct {
	top    []op
	onFire [][]op
	budget int // schedulings allowed in all, so every program ends
}

// rec is one observation: a fire (ok: an Every tick that re-arms), or the
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
		scheduled int
		exec      func(ops []op, top bool)
	)
	note := func(what string, id int, ok bool) {
		log = append(log, rec{what, id, k.Now(), ok, k.Pending()})
	}
	fire := func(id int, again bool) {
		note("fire", id, again)
		if len(p.onFire) > 0 {
			exec(p.onFire[id%len(p.onFire)], false)
		}
	}
	exec = func(ops []op, top bool) {
		for _, o := range ops {
			switch o.kind {
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
				k.After(o.d, func() { fire(id, false) })
			case opAt:
				k.At(o.at, func() { fire(id, false) })
			case opEvery:
				left := o.ticks % 8
				k.Every(o.d, func() bool {
					again := left > 0
					left--
					fire(id, again)
					return again
				})
			}
		}
	}
	exec(p.top, true)
	for k.Step() {
	}
	note("end", scheduled, true)
	return log
}

// diverge runs p on the kernel and on the sorted reference and describes
// the first observation they disagree on, or returns "".
func (p program) diverge() string {
	got, want := p.run(New(1)), p.run(&sortKernel{})
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
