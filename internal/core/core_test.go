package core

import (
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

func TestNewSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(Options{
		Policy:   `server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`,
		Machines: 2,
		EMR:      emr.Config{Period: sim.Second, MinResidence: sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		b := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(45 * sim.Millisecond)
			ctx.SendAfter(55*sim.Millisecond, ctx.Self(), "w", nil, 8)
		})
		refs = append(refs, sys.RT.SpawnOn("Worker", b, 0))
	}
	sys.Start()
	cl := sys.Client(1)
	for _, r := range refs {
		cl.Send(r, "w", nil, 8)
	}
	sys.Run(10 * sim.Second)
	if len(sys.RT.ActorsOn(1)) == 0 {
		t.Fatal("system did not balance load")
	}
}

func TestNewSystemRejectsEmptyPolicy(t *testing.T) {
	if _, err := NewSystem(Options{}); err == nil {
		t.Fatal("empty policy accepted")
	}
}

func TestNewSystemRejectsBadPolicy(t *testing.T) {
	_, err := NewSystem(Options{Policy: `server.cpu.perc >`})
	if err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestNewSystemSchemaCheck(t *testing.T) {
	_, err := NewSystem(Options{
		Policy: `server.cpu.perc > 80 => balance({Ghost}, cpu);`,
		Schema: epl.NewSchema(epl.Class("Real", nil, nil)),
	})
	if err == nil || !strings.Contains(err.Error(), "unknown actor type") {
		t.Fatalf("err = %v", err)
	}
}

func TestNewSystemSurfacesConflictWarnings(t *testing.T) {
	sys, err := NewSystem(Options{
		Policy: `
true => pin(Worker(w));
server.cpu.perc > 80 => balance({Worker}, cpu);
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Warnings) == 0 {
		t.Fatal("conflict warnings not surfaced")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Options{Policy: `true => pin(A(a));`})
	if err != nil {
		t.Fatal(err)
	}
	if sys.C.UpCount() != 4 {
		t.Fatalf("default machines = %d, want 4", sys.C.UpCount())
	}
	if sys.C.Machine(0).Type.Name != "m1.small" {
		t.Fatalf("default instance = %s", sys.C.Machine(0).Type.Name)
	}
}
