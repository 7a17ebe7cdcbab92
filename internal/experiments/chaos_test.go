package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/trace"
)

// Acceptance: all three applications survive three seeded fault schedules
// each with zero invariant violations, and the schedules actually injected
// faults (the sweep is not vacuous): the chaos row's claim.
func TestChaosInvariantsHoldAcrossAppsAndSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness runs nine full simulations")
	}
	claimHolds(t, "chaos")
}

// chaosLog is a trace sink keeping only the KindChaos records: every fault
// the injector applied, in order, with its virtual time.
type chaosLog struct{ recs []trace.Record }

func (l *chaosLog) Emit(r trace.Record) {
	if r.Kind == trace.KindChaos {
		l.recs = append(l.recs, r)
	}
}

// Satellite: the chaos layer is deterministic end to end — the same seed
// replays the same KindChaos records bit for bit and lands every actor on
// the same machine with the same EMR counters; a different seed does not.
func TestChaosDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full simulations")
	}
	trial := func(seed int64) (outcome, []trace.Record) {
		log := &chaosLog{}
		return run(Config{Trace: trace.New(log)}, seed, mediaChaosArm(1, seed)), log.recs
	}
	a, ar := trial(21)
	b, br := trial(21)
	if len(ar) == 0 || !reflect.DeepEqual(ar, br) {
		t.Fatalf("same seed produced different fault records:\n%+v\nvs\n%+v", ar, br)
	}
	if ad, bd := finalDirectory(a.RT), finalDirectory(b.RT); ad != bd {
		t.Fatalf("same seed produced different final directories:\n%s\nvs\n%s", ad, bd)
	}
	if a.M.Stats != b.M.Stats {
		t.Fatalf("same seed produced different EMR stats:\n%+v\nvs\n%+v", a.M.Stats, b.M.Stats)
	}
	if a.Inj.Stats != b.Inj.Stats {
		t.Fatalf("same seed produced different injector stats:\n%+v\nvs\n%+v", a.Inj.Stats, b.Inj.Stats)
	}

	if _, cr := trial(22); reflect.DeepEqual(ar, cr) {
		t.Fatal("different seeds produced identical fault records")
	}
}

// finalDirectory renders the actor directory for bit-identity comparison.
func finalDirectory(rt *actor.Runtime) string {
	var sb strings.Builder
	rt.ForEachActor(func(info actor.Info) {
		fmt.Fprintf(&sb, "%d@%d ", info.Ref.ID, info.Server)
	})
	return sb.String()
}
