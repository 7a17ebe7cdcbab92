package baseline

import "sort"

// KeyedApp is the view an executor-level repartitioner needs of a
// key-partitioned streaming job: a fixed executor fleet, a mutable
// key→executor table, per-key load counters over the current period, and a
// way to start a state handoff (whose cost the application models with the
// runtime's migration cost model — see streamagg).
type KeyedApp interface {
	NumKeys() int
	NumExecs() int
	OwnerOf(key int) int
	LoadOf(key int) int64
	ResetLoads()
	Moving(key int) bool
	StartHandoff(keys []int, from, to int)
}

// The repartitioner's trigger and per-period bounds: it acts when the
// hottest executor carries more than skewRatio × the fleet mean, and one
// period moves at most maxKeys keys to at most maxDests executors.
const (
	skewRatio = 1.5
	maxKeys   = 64
	maxDests  = 4
)

// Elasticutor is the executor-level key-repartitioning baseline
// (Elasticutor, PAPERS.md): executors are pinned one per server and never
// migrate; instead, when one executor's load exceeds skewRatio times the
// fleet mean, the manager peels that executor's hottest keys off and hands
// them to the least-loaded executors until its projected load re-enters
// the mean — bounded per period by maxKeys keys and maxDests destination
// batches, so a large shift converges over a few periods rather than
// stalling the pipeline behind one giant transfer.
type Elasticutor struct {
	App KeyedApp

	// Handoffs counts initiated handoff batches; KeysMoved the keys in them.
	Handoffs  int
	KeysMoved int
}

// Tick runs one period: detect skew, start the handoffs, and reset the
// period's load counters.
func (e *Elasticutor) Tick() {
	app := e.App
	defer app.ResetLoads()

	n, execs := app.NumKeys(), app.NumExecs()
	if execs < 2 {
		return
	}
	loads := make([]int64, execs)
	var total int64
	for key := 0; key < n; key++ {
		loads[app.OwnerOf(key)] += app.LoadOf(key)
		total += app.LoadOf(key)
	}
	if total == 0 {
		return
	}
	mean := float64(total) / float64(execs)
	src := 0
	for i := 1; i < execs; i++ {
		if loads[i] > loads[src] {
			src = i
		}
	}
	if float64(loads[src]) <= skewRatio*mean {
		return
	}

	// The source's keys, hottest first (ties by key for determinism).
	type hotKey struct {
		key  int
		load int64
	}
	var cands []hotKey
	for key := 0; key < n; key++ {
		if app.OwnerOf(key) == src && !app.Moving(key) && app.LoadOf(key) > 0 {
			cands = append(cands, hotKey{key, app.LoadOf(key)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load > cands[j].load
		}
		return cands[i].key < cands[j].key
	})

	// The maxDests least-loaded executors receive the peeled keys; each key
	// goes to whichever destination is currently lightest (projected).
	type dest struct {
		exec int
		load int64
		keys []int
	}
	order := make([]int, 0, execs)
	for i := 0; i < execs; i++ {
		if i != src {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if loads[order[i]] != loads[order[j]] {
			return loads[order[i]] < loads[order[j]]
		}
		return order[i] < order[j]
	})
	if len(order) > maxDests {
		order = order[:maxDests]
	}
	dests := make([]*dest, len(order))
	for i, ex := range order {
		dests[i] = &dest{exec: ex, load: loads[ex]}
	}

	srcLoad := loads[src]
	moved := 0
	for _, c := range cands {
		if moved >= maxKeys || float64(srcLoad) <= mean {
			break
		}
		d := dests[0]
		for _, cand := range dests[1:] {
			if cand.load < d.load {
				d = cand
			}
		}
		// Never overfill a destination past the mean with a key the source
		// could keep: if even the lightest destination would exceed the
		// source's projected load, moving stops helping.
		if float64(d.load)+float64(c.load) >= float64(srcLoad) {
			break
		}
		d.keys = append(d.keys, c.key)
		d.load += c.load
		srcLoad -= c.load
		moved++
	}
	for _, d := range dests {
		if len(d.keys) == 0 {
			continue
		}
		sort.Ints(d.keys)
		app.StartHandoff(d.keys, src, d.exec)
		e.Handoffs++
		e.KeysMoved += len(d.keys)
	}
}
