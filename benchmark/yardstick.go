package main

import (
	"syscall"
	"time"
)

// The reference machine is a small shared virtual machine. What its
// neighbours do to the shared cache and clock moves a simulator run's time
// by ten to twenty-five percent from one minute to the next, more than the
// bound any host-time metric carries. The harness therefore times a phase in
// slices and, between slices, times a fixed piece of its own work, the
// yardstick. A slice's seconds are divided by how slow the yardstick ran
// around it, which reports them as seconds of a machine running at the
// yardstick's nominal speed. Replayed over the logged slices of one seed
// run eight times next to other load, the correction took the quartile
// spread of run_wall_s from 26, 15, 11 and 16 percent on the four workloads
// to 7, 2, 6 and 3; AA.md has the spreads of the finished benchmark. The
// yardstick uses no code of the repository, so a change to the repository
// cannot move it.

// yardNominal is one burst's duration on the reference machine with
// nothing competing for it: a corrected second is a second there.
const yardNominal = 4400 * time.Microsecond

// yardstick is the fixed work. Its four parts take about a quarter of a
// burst each and slow down under different kinds of contention: a binary
// heap that fits the inner caches, integer mixing, a pointer chase over
// 8 MB and lookups in a 200,000-entry Go map, the last two being what the
// simulator's own event heap, actor directory and profiler tables look like
// to the last-level cache.
type yardstick struct {
	heap  []uint64
	chase []uint32
	tbl   map[uint64]uint64
	x     uint64
	sink  uint64
}

const (
	yardChase = 2 << 20
	yardKeys  = 200_000
	yardHash  = 2654435761
)

func newYardstick() *yardstick {
	y := &yardstick{x: 88172645463325252}
	for i := 0; i < 4096; i++ {
		y.push(y.next())
	}
	y.chase = make([]uint32, yardChase)
	for i := range y.chase {
		y.chase[i] = uint32(i)
	}
	for i := yardChase - 1; i > 0; i-- { // Sattolo's shuffle: one cycle through every slot
		j := int(y.next() % uint64(i))
		y.chase[i], y.chase[j] = y.chase[j], y.chase[i]
	}
	y.tbl = make(map[uint64]uint64, yardKeys)
	for i := uint64(0); i < yardKeys; i++ {
		y.tbl[i*yardHash] = i
	}
	return y
}

func (y *yardstick) next() uint64 {
	y.x ^= y.x << 13
	y.x ^= y.x >> 7
	y.x ^= y.x << 17
	return y.x
}

func (y *yardstick) push(v uint64) {
	h := append(y.heap, v)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	y.heap = h
}

func (y *yardstick) pop() uint64 {
	h := y.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if r < n && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	y.heap = h
	return top
}

// burst does the fixed work once and reports how long it took.
func (y *yardstick) burst() time.Duration {
	t0 := time.Now()
	for i := 0; i < 24000; i++ {
		y.push(y.pop() + y.next()%1024)
	}
	acc := y.next()
	for i := 0; i < 600000; i++ {
		acc ^= y.next()
	}
	at := uint32(acc % yardChase)
	for i := 0; i < 7500; i++ {
		at = y.chase[at]
	}
	for i := 0; i < 17000; i++ {
		acc += y.tbl[(y.next()%yardKeys)*yardHash]
	}
	y.sink += acc + uint64(at)
	return time.Since(t0)
}

// stopwatch times a phase in slices with a burst of the yardstick between
// them, and reports the phase's seconds corrected slice by slice.
type stopwatch struct {
	yard *yardstick

	// bursts[i] ran just before slice i; the last one closes the last slice.
	bursts []time.Duration
	walls  []time.Duration
	cpus   []time.Duration

	open    time.Time
	openCPU time.Duration

	// yardTime is the time every burst so far took, for callers that time
	// an interval with laps inside it.
	yardTime time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// start forgets the previous phase and opens the first slice.
func (s *stopwatch) start() {
	s.bursts = append(s.bursts[:0], s.yard.burst())
	s.yardTime += s.bursts[0]
	s.walls, s.cpus = s.walls[:0], s.cpus[:0]
	s.open, s.openCPU = time.Now(), processCPU()
}

// lap closes the open slice and opens the next.
func (s *stopwatch) lap() {
	s.walls = append(s.walls, time.Since(s.open))
	s.cpus = append(s.cpus, processCPU()-s.openCPU)
	s.bursts = append(s.bursts, s.yard.burst())
	s.yardTime += s.bursts[len(s.bursts)-1]
	s.open, s.openCPU = time.Now(), processCPU()
}

// seconds reports the closed slices' wall and CPU seconds, corrected, and
// the wall seconds as the clock read them. A slice is corrected by the mean
// of the four bursts nearest it, two on either side: single bursts are
// short enough to catch a neighbour's millisecond of noise, which the slice
// as a whole did not suffer.
func (s *stopwatch) seconds() (wall, cpu, rawWall float64) {
	for i := range s.walls {
		lo, hi := i-1, i+3 // bursts[i] and bursts[i+1] bracket slice i
		if lo < 0 {
			lo = 0
		}
		if hi > len(s.bursts) {
			hi = len(s.bursts)
		}
		var sum time.Duration
		for _, b := range s.bursts[lo:hi] {
			sum += b
		}
		slow := float64(sum) / float64(hi-lo) / float64(yardNominal)
		wall += s.walls[i].Seconds() / slow
		cpu += s.cpus[i].Seconds() / slow
		rawWall += s.walls[i].Seconds()
	}
	return wall, cpu, rawWall
}
