package epl

import (
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
)

// mediaSnapshot is a snapshot shaped like the profiler's over the Media
// Service's actors for the given number of clients (apps/mediaservice):
// eight MovieReview and eight Catalog actors, then per pair of clients a
// FrontEnd, VideoStream, ReviewEditor and ReviewChecker, and per client a
// UserInfo and a UserReview, spawned in that order onto four servers, so
// ids ascend through Actors. Calls carry one record per caller, as the
// profiler keeps them: every UserInfo is tracked by its pair's stream, and
// every UserReview updated by its pair's editor.
func mediaSnapshot(clients int) *Snapshot {
	snap := &Snapshot{}
	for i := 0; i < 4; i++ {
		snap.Servers = append(snap.Servers, &ServerInfo{ID: cluster.MachineID(i), CPUPerc: float64(40 + 15*i), NetPerc: 70})
	}
	spawn := func(typ string, calls ...CallStat) *ActorInfo {
		id := actor.ID(len(snap.Actors) + 1)
		a := &ActorInfo{Ref: actor.Ref{ID: id}, Type: typ, Server: cluster.MachineID(int(id) % 4), CPUPerc: 3, Calls: calls}
		snap.Actors = append(snap.Actors, a)
		return a
	}
	from := func(caller *ActorInfo, method string, count int64) CallStat {
		return CallStat{CallerType: caller.Type, Caller: caller.Ref, Method: method, Count: count, Bytes: 512 * count}
	}
	var reviews []*ActorInfo
	for i := 0; i < 8; i++ {
		reviews = append(reviews, spawn("MovieReview"))
		spawn("Catalog")
	}
	for pair := 0; pair < clients/2; pair++ {
		fe := spawn("FrontEnd",
			CallStat{CallerType: actor.ClientCaller, Method: "watch", Count: 40},
			CallStat{CallerType: actor.ClientCaller, Method: "review", Count: 20})
		video := spawn("VideoStream", from(fe, "stream", 40))
		editor := spawn("ReviewEditor", from(fe, "edit", 20))
		checker := spawn("ReviewChecker", from(editor, "check", 20))
		mr := reviews[pair%len(reviews)]
		mr.Calls = append(mr.Calls, from(checker, "publish", 20))
		for c := 0; c < 2; c++ {
			spawn("UserInfo", from(video, "track", 20))
			spawn("UserReview", from(editor, "update", 10))
		}
	}
	return snap.Index()
}

// BenchmarkEvaluate is one LEM-and-GEM evaluation of the Media Service
// policy over the actors of 128 clients: the two interaction rules join
// each UserInfo and UserReview to the stream or editor that called it,
// rather than visiting every pair of the two types. Ceiling:
// TestEvaluateAllocCeiling.
func BenchmarkEvaluate(b *testing.B) {
	pol := MustParse(mediaPolicy)
	snap := mediaSnapshot(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if in := Evaluate(pol, snap, true, true); len(in.Colocate) != 256 {
			b.Fatalf("colocate intents = %d, want 256", len(in.Colocate))
		}
	}
}

// An evaluation allocates its intents and their slices, grown by doubling;
// each rule's plan is fixed at parse, and the dedup sets and the per-level
// buffers come from the evaluator pool. So nothing is allocated per rule,
// per context checked or per firing: 128 clients' evaluation fires 330
// times and allocates 28 times (the reference cross product, 395), and
// eight times the clients add 11 growths, not eight times as many.
func TestEvaluateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops evaluators at random")
	}
	pol := MustParse(mediaPolicy)
	const ceiling = 30
	snap := mediaSnapshot(128)
	small := testing.AllocsPerRun(5, func() { Evaluate(pol, snap, true, true) })
	if small > ceiling {
		t.Errorf("Evaluate over 128 clients: %.0f allocs, ceiling %d", small, ceiling)
	}
	// A traced evaluation reuses one values buffer for every firing.
	if got := testing.AllocsPerRun(5, func() { EvaluateObserved(pol, snap, true, true, nopObserver{}) }); got > small+2 {
		t.Errorf("observed Evaluate: %.0f allocs, against %.0f unobserved", got, small)
	}
	big := mediaSnapshot(1024)
	if got := testing.AllocsPerRun(5, func() { Evaluate(pol, big, true, true) }); got > small+20 {
		t.Errorf("Evaluate over 1,024 clients: %.0f allocs, against %.0f over 128", got, small)
	}
}
