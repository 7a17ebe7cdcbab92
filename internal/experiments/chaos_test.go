package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plasma/internal/actor"
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

// Satellite: the chaos layer is deterministic end to end — the same seed
// replays the same fault trace bit for bit and lands every actor on the
// same machine with the same EMR counters; a different seed does not.
func TestChaosDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full simulations")
	}
	a := chaosTrial(Config{}, 1, 21, mediaChaosArm)
	b := chaosTrial(Config{}, 1, 21, mediaChaosArm)
	if !reflect.DeepEqual(a.Inj.Trace(), b.Inj.Trace()) {
		t.Fatalf("same seed produced different fault traces:\n%v\nvs\n%v", a.Inj.Trace(), b.Inj.Trace())
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

	c := chaosTrial(Config{}, 1, 22, mediaChaosArm)
	if reflect.DeepEqual(a.Inj.Trace(), c.Inj.Trace()) {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// finalDirectory renders the actor directory for bit-identity comparison.
func finalDirectory(rt *actor.Runtime) string {
	var sb strings.Builder
	for _, ref := range rt.Actors() {
		fmt.Fprintf(&sb, "%d@%d ", ref.ID, rt.ServerOf(ref))
	}
	return sb.String()
}
