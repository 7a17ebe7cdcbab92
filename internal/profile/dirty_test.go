package profile

import (
	"slices"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Snapshot refreshes the rows something marked and no others. Of 100,000
// actors, 1,000 hear a message in the first window, 100 more are charged
// only CPU and 100 only net: those 1,200 rows are the ones rewritten. After
// Reset the next window messages 1,000 others, and the rows rewritten are
// theirs plus the 1,200 carried ones, whose usage must fall to zero; a quiet
// window later only the second thousand are carried, and one more later no
// row is touched. A sentinel written into every row before each call
// survives in exactly the rows the call left alone. Every call still draws
// a new generation, though no actor was born or died.
func TestSnapshotRefreshesOnlyMarkedRows(t *testing.T) {
	const fleet, messaged, charged = 100_000, 1_000, 100
	k := sim.New(1)
	c := cluster.New(k, 4, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	h := &logHook{Profiler: New(k, c, rt)}
	rt.SetProfiler(h)
	nop := actor.BehaviorFunc(func(*actor.Context, actor.Message) {})
	refs := make([]actor.Ref, fleet)
	for i := range refs {
		refs[i] = rt.SpawnOn("W", nop, cluster.MachineID(i%4))
	}
	gen := h.Snapshot(nil).Gen()

	const sentinel = sim.Duration(-7)
	// snapshot takes one Snapshot with the sentinel in every row's CPUTime,
	// a usage field every refresh rewrites, and returns the ids of the rows
	// it rewrote, after zeroing the sentinel in the others (quiet rows show
	// no usage).
	snapshot := func(window int) []actor.ID {
		t.Helper()
		for _, a := range h.snap.Actors {
			a.CPUTime = sentinel
		}
		k.Run(k.Now() + sim.Time(sim.Second))
		snap := h.Snapshot(nil)
		if snap.Gen() == gen {
			t.Fatalf("window %d: the snapshot kept generation %d", window, gen)
		}
		gen = snap.Gen()
		var ids []actor.ID
		for _, a := range snap.Actors {
			if a.CPUTime != sentinel {
				ids = append(ids, a.Ref.ID)
				continue
			}
			a.CPUTime = 0
		}
		requireMatchesNaive(t, h, snap)
		return ids
	}
	// use runs n actors, every third from refs[from], through one hook
	// kind, and adds them to the rows the next call must refresh.
	var want []actor.ID
	use := func(from, n int, hook func(actor.Ref)) {
		for i := 0; i < n; i++ {
			r := refs[from+3*i]
			hook(r)
			want = append(want, r.ID)
		}
	}
	srv := func(r actor.Ref) cluster.MachineID { return rt.ServerOf(r) }
	message := func(r actor.Ref) { h.OnMessage(srv(r), actor.ClientCaller, actor.Ref{}, r, "W", "m", 64) }
	cpu := func(r actor.Ref) { h.OnCPU(srv(r), r, "W", sim.Millisecond) }
	net := func(r actor.Ref) { h.OnNet(srv(r), r, "W", 128) }
	check := func(window int, got []actor.ID) {
		t.Helper()
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("window %d: %d rows refreshed, want the %d marked or carried ones", window, len(got), len(want))
		}
	}

	use(0, messaged, message)
	use(1, charged, cpu)
	use(2, charged, net)
	first := slices.Clone(want)
	check(1, snapshot(1))
	h.Reset()
	h.log = h.log[:0]

	want = first
	use(fleet/2, messaged, message)
	second := slices.Clone(want[len(first):])
	check(2, snapshot(2))
	h.Reset()
	h.log = h.log[:0]

	want = second
	check(3, snapshot(3))
	want = nil
	check(4, snapshot(4))
}

// The first call marks every row, so a profiler attached to a runtime whose
// change set an earlier profiler has already taken still lists every actor,
// with its properties and pin.
func TestFirstSnapshotListsEveryActor(t *testing.T) {
	k, c, rt, p := env()
	nop := actor.BehaviorFunc(func(*actor.Context, actor.Message) {})
	a := rt.SpawnOn("W", nop, 0)
	b := rt.SpawnOn("W", nop, 1)
	rt.SetProp(a, "peer", []actor.Ref{b})
	rt.Pin(b)
	p.Snapshot(nil)

	h := &logHook{Profiler: New(k, c, rt)}
	snap := h.Snapshot(nil)
	requireMatchesNaive(t, h, snap)
	if len(snap.Actors) != 2 || len(snap.Actor(a).Props["peer"]) != 1 || !snap.Actor(b).Pinned {
		t.Fatalf("a second profiler's first snapshot lists %d actors: %+v", len(snap.Actors), snap.Actors)
	}
}
