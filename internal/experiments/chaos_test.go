package experiments

import (
	"reflect"
	"testing"
)

// Acceptance: all three applications survive three seeded fault schedules
// each with zero invariant violations, and the schedules actually injected
// faults (the sweep is not vacuous).
func TestChaosInvariantsHoldAcrossAppsAndSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness runs nine full simulations")
	}
	r := Chaos(Config{})
	if got := r.Summary["runs"]; got != 9 {
		t.Fatalf("runs = %v, want 9 (3 apps x 3 seeds)", got)
	}
	if got := r.Summary["invariant_violations"]; got != 0 {
		t.Fatalf("invariant violations = %v, want 0:\n%s", got, r.Render())
	}
	if r.Summary["msg_faults"] == 0 {
		t.Fatal("no message faults injected; harness is vacuous")
	}
	if r.Summary["crashes"] == 0 {
		t.Fatal("no machine crashes applied; harness is vacuous")
	}
	if r.Summary["migrations"] == 0 {
		t.Fatal("no elasticity actions executed under chaos")
	}
}

// Satellite: the chaos layer is deterministic end to end — the same seed
// replays the same fault trace bit for bit and lands every actor on the
// same machine with the same EMR counters; a different seed does not.
func TestChaosDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full simulations")
	}
	a := chaosTrial(Config{}, 21, mediaChaosArm)
	b := chaosTrial(Config{}, 21, mediaChaosArm)
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

	c := chaosTrial(Config{}, 22, mediaChaosArm)
	if reflect.DeepEqual(a.Inj.Trace(), c.Inj.Trace()) {
		t.Fatal("different seeds produced identical fault traces")
	}
}
