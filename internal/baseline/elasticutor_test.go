package baseline

import (
	"reflect"
	"testing"
)

// fakeKeyed is a pure in-memory KeyedApp: handoffs are recorded and applied
// instantly, so tests exercise the repartitioner's decisions without a
// simulated cluster underneath.
type fakeKeyed struct {
	owner  []int
	load   []int64
	execs  int
	moving map[int]bool

	handoffs []recordedHandoff
	resets   int
}

type recordedHandoff struct {
	keys     []int
	from, to int
}

func newFakeKeyed(execs int, owner []int, load []int64) *fakeKeyed {
	return &fakeKeyed{owner: owner, load: load, execs: execs, moving: map[int]bool{}}
}

func (f *fakeKeyed) NumKeys() int         { return len(f.owner) }
func (f *fakeKeyed) NumExecs() int        { return f.execs }
func (f *fakeKeyed) OwnerOf(key int) int  { return f.owner[key] }
func (f *fakeKeyed) LoadOf(key int) int64 { return f.load[key] }
func (f *fakeKeyed) Moving(key int) bool  { return f.moving[key] }
func (f *fakeKeyed) ResetLoads() {
	f.resets++
	for i := range f.load {
		f.load[i] = 0
	}
}
func (f *fakeKeyed) StartHandoff(keys []int, from, to int) {
	f.handoffs = append(f.handoffs, recordedHandoff{append([]int(nil), keys...), from, to})
	for _, k := range keys {
		f.owner[k] = to
	}
}

func TestElasticutorNoTriggerWhenBalanced(t *testing.T) {
	// 4 executors, 8 keys, 10 load each: max == mean, no skew to fix.
	app := newFakeKeyed(4,
		[]int{0, 0, 1, 1, 2, 2, 3, 3},
		[]int64{10, 10, 10, 10, 10, 10, 10, 10})
	(&Elasticutor{App: app}).Tick()
	if len(app.handoffs) != 0 {
		t.Fatalf("balanced load triggered handoffs: %v", app.handoffs)
	}
	if app.resets != 1 {
		t.Fatalf("tick must reset the period's counters exactly once, got %d", app.resets)
	}
}

func TestElasticutorPeelsHotKeysToColdestExecs(t *testing.T) {
	// Executor 0 holds the entire load; its hottest keys must peel off to
	// the (equally idle, so index-ordered) other executors, hottest first.
	app := newFakeKeyed(4,
		[]int{0, 0, 0, 0, 1, 2, 3, 3},
		[]int64{40, 30, 20, 10, 0, 0, 0, 0})
	(&Elasticutor{App: app}).Tick()
	if len(app.handoffs) == 0 {
		t.Fatal("full skew onto one executor triggered no handoffs")
	}
	for _, h := range app.handoffs {
		if h.from != 0 {
			t.Fatalf("handoff sourced from executor %d, want the hot executor 0", h.from)
		}
		if h.to == 0 {
			t.Fatal("handoff sent keys back to the hot executor")
		}
	}
	// The hottest key (0, load 40) must be among the peeled keys.
	moved := map[int]bool{}
	for _, h := range app.handoffs {
		for _, k := range h.keys {
			moved[k] = true
		}
	}
	if !moved[0] {
		t.Fatalf("hottest key not peeled; moved=%v", moved)
	}
	// Projected source load must have re-entered the vicinity of the mean
	// (100 total / 4 execs = 25): peeling stops at or below it.
	var left int64
	for k, o := range app.owner {
		if o == 0 {
			left += []int64{40, 30, 20, 10, 0, 0, 0, 0}[k]
		}
	}
	if left > 40 {
		t.Fatalf("source kept %d load after repartitioning, want near the mean 25", left)
	}
}

func TestElasticutorHonorsMaxKeysAndMaxDests(t *testing.T) {
	// 200 equally hot keys all on executor 0 of 10: reaching the mean would
	// take 180 keys over 9 destinations, so both per-period caps bind.
	owner := make([]int, 200)
	load := make([]int64, 200)
	for i := range load {
		load[i] = 10
	}
	app := newFakeKeyed(10, owner, load)
	e := &Elasticutor{App: app}
	e.Tick()
	if e.KeysMoved != maxKeys {
		t.Fatalf("moved %d keys, want the cap maxKeys = %d", e.KeysMoved, maxKeys)
	}
	dests := map[int]bool{}
	for _, h := range app.handoffs {
		dests[h.to] = true
	}
	if len(dests) != maxDests {
		t.Fatalf("used %d destinations, want the cap maxDests = %d", len(dests), maxDests)
	}
}

// The trigger is a load strictly above skewRatio × the fleet mean.
func TestElasticutorSkewRatioTrigger(t *testing.T) {
	// Two executors, mean 50: 75 on executor 0 is exactly skewRatio × mean.
	at := newFakeKeyed(2, []int{0, 0, 1}, []int64{45, 30, 25})
	(&Elasticutor{App: at}).Tick()
	if len(at.handoffs) != 0 {
		t.Fatalf("load at skewRatio × mean triggered handoffs: %v", at.handoffs)
	}
	over := newFakeKeyed(2, []int{0, 0, 1}, []int64{46, 30, 24})
	(&Elasticutor{App: over}).Tick()
	if len(over.handoffs) == 0 {
		t.Fatal("load above skewRatio × mean triggered no handoff")
	}
}

func TestElasticutorSkipsKeysAlreadyMoving(t *testing.T) {
	app := newFakeKeyed(2, []int{0, 0, 1, 1}, []int64{50, 40, 0, 0})
	app.moving[0] = true // the hottest key's handoff is already in flight
	(&Elasticutor{App: app}).Tick()
	for _, h := range app.handoffs {
		for _, k := range h.keys {
			if k == 0 {
				t.Fatal("re-handed a key whose handoff is in flight")
			}
		}
	}
}

func TestElasticutorDeterministic(t *testing.T) {
	build := func() *fakeKeyed {
		owner := make([]int, 32)
		load := make([]int64, 32)
		for i := range owner {
			owner[i] = i % 4
		}
		// All heat on executor 0's keys, many ties — the tie-breaks must be
		// stable for the decision stream to be reproducible.
		for i := 0; i < 32; i += 4 {
			load[i] = 10
		}
		return newFakeKeyed(4, owner, load)
	}
	a, b := build(), build()
	(&Elasticutor{App: a}).Tick()
	(&Elasticutor{App: b}).Tick()
	if !reflect.DeepEqual(a.handoffs, b.handoffs) {
		t.Fatalf("identical inputs produced different handoffs:\n%v\nvs\n%v", a.handoffs, b.handoffs)
	}
}

// Each Tick is one period: it repartitions on that period's loads and
// resets them exactly once, so a run of ticks sees one window each.
func TestElasticutorTicksResetEachWindow(t *testing.T) {
	app := newFakeKeyed(2, []int{0, 0, 1, 1}, []int64{60, 30, 5, 5})
	e := &Elasticutor{App: app}
	e.Tick()
	if e.Handoffs == 0 {
		t.Fatal("the skewed period repartitioned nothing")
	}
	for i := 0; i < 3; i++ {
		e.Tick() // empty windows: nothing to move
	}
	if app.resets != 4 {
		t.Fatalf("four ticks reset the load window %d times, want 4", app.resets)
	}
	if e.Handoffs != 1 {
		t.Fatalf("empty windows started handoffs: %d batches", e.Handoffs)
	}
}
