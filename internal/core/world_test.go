package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// goFiles lists the non-test Go files under dirs, sorted, skipping testdata
// and dot-directories.
func goFiles(t *testing.T, dirs ...string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() && path != dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(files)
	return files
}

// sourceFiles is goFiles over the module's internal/, cmd/ and examples/.
func sourceFiles(t *testing.T, root string) []string {
	t.Helper()
	files := goFiles(t, filepath.Join(root, "internal"), filepath.Join(root, "cmd"), filepath.Join(root, "examples"))
	if len(files) < 50 {
		t.Fatalf("walked only %d files; is the test running inside the repository?", len(files))
	}
	return files
}

// TestOnlyCoreWiresTheLayers is the one-builder rule, enforced: outside
// internal/core and internal/emr, no non-test file under internal/, cmd/ or
// examples/ calls a layer constructor that World calls for it. (sim.New is
// not on the list: a throwaway kernel is a legitimate seeded RNG.)
func TestOnlyCoreWiresTheLayers(t *testing.T) {
	banned := map[string]string{
		"plasma/internal/cluster": "New",
		"plasma/internal/actor":   "NewRuntime",
		"plasma/internal/profile": "New",
		"plasma/internal/emr":     "New",
	}
	root := filepath.Join("..", "..")
	files := sourceFiles(t, root)
	fset := token.NewFileSet()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "internal/core/") || strings.HasPrefix(rel, "internal/emr/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctor := map[string]string{} // local package name -> banned constructor
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if fn, ok := banned[ipath]; ok {
				name := filepath.Base(ipath)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				ctor[name] = fn
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && ctor[pkg.Name] == sel.Sel.Name {
				pos := fset.Position(call.Pos())
				t.Errorf("%s:%d: calls %s.%s; build the world with core.NewWorld / World.Manage",
					rel, pos.Line, pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// TestNoWallClockOrGlobalRand is the determinism call rule: a run is a
// function of its seed, so no non-test file under internal/, cmd/ or
// examples/ reads the wall clock (time.Now, time.Since; cmd/plasma-bench,
// which times the sweep, is exempt) or draws from math/rand's process-global
// source. The rand rule is an allowlist: only the New* constructors, which
// build an explicitly seeded generator, may be called on the package. Map
// order leaking into output is left to the run-twice tests (experiments'
// TestAllQuickIDsDeterministic), which see every path to the output.
func TestNoWallClockOrGlobalRand(t *testing.T) {
	watched := map[string]string{"time": "time", "math/rand": "rand", "math/rand/v2": "rand"}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	for _, path := range sourceFiles(t, root) {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imported := map[string]string{} // local package name -> import path
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if name, ok := watched[ipath]; ok {
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = ipath
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			line, fn := fset.Position(call.Pos()).Line, sel.Sel.Name
			switch imported[pkg.Name] {
			case "time":
				if (fn == "Now" || fn == "Since") && !strings.HasPrefix(rel, "cmd/plasma-bench/") {
					t.Errorf("%s:%d: calls %s.%s; simulated time comes from the kernel's clock", rel, line, pkg.Name, fn)
				}
			case "math/rand", "math/rand/v2":
				if !strings.HasPrefix(fn, "New") {
					t.Errorf("%s:%d: calls %s.%s on the process-global source; draw from a seeded *rand.Rand", rel, line, pkg.Name, fn)
				}
			}
			return true
		})
	}
}

// TestNoGoroutines is the one-thread rule: no non-test file under internal/,
// cmd/ or examples/ holds a go statement. One goroutine runs every kernel and
// every experiment's arms and seeds, in one order, so no shared record needs
// a lock and no output depends on scheduling.
func TestNoGoroutines(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	for _, path := range sourceFiles(t, root) {
		rel, _ := filepath.Rel(root, path)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s:%d: go statement; the simulator runs on one goroutine", filepath.ToSlash(rel), fset.Position(g.Pos()).Line)
			}
			return true
		})
	}
}

// TestOnlyRunDrivesWorlds is the one-loop rule, enforced: in
// internal/experiments, scenario.go's run is the only non-test code that makes
// a world (core.NewWorld), gives it a manager or an injector, advances its
// kernel or sweeps it. Every id describes its arms as scenario values; what a
// per-period checker or a seed sweep needs to hook is therefore one function.
func TestOnlyRunDrivesWorlds(t *testing.T) {
	banned := map[string]bool{
		"NewWorld": true, "Manage": true, "Chaos": true, "Apply": true,
		"Run": true, "RunUntilIdle": true, "Step": true, "Invariants": true,
	}
	files := goFiles(t, filepath.Join("..", "experiments"))
	sawRun := false
	fset := token.NewFileSet()
	for _, path := range files {
		name := filepath.Base(path)
		if name == "scenario.go" {
			sawRun = true
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
					t.Errorf("%s:%d: calls .%s; describe the arm as a scenario and let run drive it",
						name, fset.Position(call.Pos()).Line, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if !sawRun {
		t.Fatal("internal/experiments/scenario.go not found; the rule has nothing to exempt")
	}
}

// TestOnlyLintImportsModelChecker keeps the policy model checker beside the
// simulator, not in it: outside internal/lint and cmd/plasma-lint no non-test
// file imports internal/lint/model, so plasma-sim, plasma-bench and the
// examples do not link it. Replaying a counterexample through the simulator
// is internal/experiments' test harness.
func TestOnlyLintImportsModelChecker(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	for _, path := range sourceFiles(t, root) {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "internal/lint/") || strings.HasPrefix(rel, "cmd/plasma-lint/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "plasma/internal/lint/model" {
				t.Errorf("%s imports %s; only internal/lint and cmd/plasma-lint may", rel, p)
			}
		}
	}
}

// TestComparisonManagersScheduleNothing is the one-period rule, enforced: a
// comparison manager in internal/baseline or internal/apps/estore is one
// per-period step (Tick) that run's period timer calls with the EPR window it
// has just closed, so no non-test file there schedules a period of its own
// (.Every), holds a *sim.Kernel to schedule one with, or holds a
// *profile.Profiler to close a window of its own.
func TestComparisonManagersScheduleNothing(t *testing.T) {
	root := filepath.Join("..", "..")
	files := goFiles(t,
		filepath.Join(root, "internal", "baseline"),
		filepath.Join(root, "internal", "apps", "estore"))
	if len(files) < 3 {
		t.Fatalf("walked only %d files; is the test running inside the repository?", len(files))
	}
	fset := token.NewFileSet()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			line := fset.Position(sel.Pos()).Line
			switch pkg, _ := sel.X.(*ast.Ident); {
			case sel.Sel.Name == "Every":
				t.Errorf("%s:%d: calls .%s; expose the period as Tick and let run's timer call it",
					filepath.ToSlash(rel), line, sel.Sel.Name)
			case pkg != nil && pkg.Name == "sim" && sel.Sel.Name == "Kernel":
				t.Errorf("%s:%d: holds a *sim.Kernel; a comparison manager schedules nothing",
					filepath.ToSlash(rel), line)
			case pkg != nil && pkg.Name == "profile" && sel.Sel.Name == "Profiler":
				t.Errorf("%s:%d: holds a *profile.Profiler; plan from the window run hands you",
					filepath.ToSlash(rel), line)
			}
			return true
		})
	}
}

// TestEMRTicksOnlyInStartShim is the one-period rule for the EMR: its period
// is one step (Manager.Tick) that the caller's loop calls, so no non-test
// file in internal/emr schedules a period (.Every) outside (*Manager).Start,
// the shim over Tick for callers without a loop of their own.
func TestEMRTicksOnlyInStartShim(t *testing.T) {
	files := goFiles(t, filepath.Join("..", "emr"))
	fset := token.NewFileSet()
	inShim := 0
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			shim := false
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Start" && fn.Recv != nil {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					id, ok := star.X.(*ast.Ident)
					shim = ok && id.Name == "Manager"
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Every" {
					if shim {
						inShim++
					} else {
						t.Errorf("%s:%d: calls .Every; the EMR's period is Tick, which the caller's loop calls",
							filepath.Base(path), fset.Position(sel.Pos()).Line)
					}
				}
				return true
			})
		}
	}
	if inShim == 0 {
		t.Fatal("(*Manager).Start schedules no period; the rule has no shim to exempt")
	}
}

// quiescedWorld is three servers with two 1 MB actors each and one 64 MB
// actor on server 0, every mailbox drained; its Invariants are clean.
func quiescedWorld(t *testing.T) (*World, actor.Ref) {
	t.Helper()
	w := NewWorld(1, 3, cluster.M1Small, nil)
	sized := func(bytes int64) actor.Behavior {
		return actor.BehaviorFunc(func(ctx *actor.Context, _ actor.Message) { ctx.SetMemSize(bytes) })
	}
	cl := w.Client(0)
	for srv := cluster.MachineID(0); srv < 3; srv++ {
		for i := 0; i < 2; i++ {
			cl.Send(w.RT.SpawnOn("Small", sized(1<<20), srv), "init", nil, 8)
		}
	}
	big := w.RT.SpawnOn("Big", sized(64<<20), 0)
	cl.Send(big, "init", nil, 8)
	w.K.RunUntilIdle()
	if bad := w.Invariants(0); len(bad) != 0 {
		t.Fatalf("quiesced world not clean: %v", bad)
	}
	return w, big
}

func TestWorldInvariantsCatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		breakIt func(w *World, big actor.Ref)
		want    string
	}{
		{"MemoryDrift", func(w *World, _ actor.Ref) { w.C.Machine(1).AddMem(1) },
			"machine 1 memory drift"},
		{"ActorsOnDownMachine", func(w *World, _ actor.Ref) { w.C.Fail(2) },
			"2 actors homed on down machine 2"},
		// The 64 MB move costs 2.788 s on an idle pair, far past the 100 ms
		// bound, and is allowed its own cost plus the bound.
		{"MoveWithinItsCost", func(w *World, big actor.Ref) {
			w.RT.Migrate(big, 1, nil)
			w.Run(2 * sim.Second)
		}, ""},
		// A minute of work on server 0's one core holds the move at
		// serialize, so only its age grows.
		{"YoungMigration", func(w *World, big actor.Ref) {
			contended(w, big, moveCost+100*sim.Millisecond)
		}, ""},
		{"StuckMigration", func(w *World, big actor.Ref) {
			contended(w, big, moveCost+101*sim.Millisecond)
		}, "a migration in flight for 2.889s, 101.000ms past its 2.788s move (bound 100.000ms)"},
		{"ReplyTwice", func(w *World, _ actor.Ref) {
			answerTwice(w, func(ctx *actor.Context, msg actor.Message, _ actor.Ref) {
				ctx.Reply(nil, 8)
				ctx.Reply(nil, 8)
			})
		}, "requests answered more than once (1 extra replies)"},
		{"ForwardThenReply", func(w *World, _ actor.Ref) {
			answerTwice(w, func(ctx *actor.Context, msg actor.Message, leaf actor.Ref) {
				ctx.Forward(leaf, msg.Method, nil, 8)
				ctx.Reply(nil, 8)
			})
		}, "requests answered more than once (1 extra replies)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, big := quiescedWorld(t)
			tc.breakIt(w, big)
			switch bad := w.Invariants(100 * sim.Millisecond); {
			case tc.want == "" && len(bad) != 0:
				t.Fatalf("Invariants(100ms) = %q, want none", bad)
			case tc.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.want)):
				t.Fatalf("Invariants(100ms) = %q, want one message containing %q", bad, tc.want)
			}
		})
	}
}

// moveCost is quiescedWorld's 64 MB move from server 0 to 1 with no
// contention.
const moveCost = 2_787_983 * sim.Microsecond

// contended occupies server 0's one core for a minute, migrates big to
// server 1 behind that work, and runs the world for d.
func contended(w *World, big actor.Ref, d sim.Duration) {
	w.C.Machine(0).Exec(sim.Minute, func() {})
	w.RT.Migrate(big, 1, nil)
	w.Run(d)
}

// A settled world's sweep allows no migration in flight, however young.
func TestWorldInvariantsSettledAllowsNoMigration(t *testing.T) {
	w, big := quiescedWorld(t)
	w.RT.Migrate(big, 1, nil)
	w.Run(sim.Millisecond)
	if bad := w.Invariants(0); len(bad) != 1 || bad[0] != "1 migrations in flight (none allowed)" {
		t.Fatalf("Invariants(0) = %q, want the one in-flight migration", bad)
	}
}

// answerTwice sends one client request to an actor on server 0 that handles
// it with front, given a leaf on server 1 that replies to whatever reaches
// it, and runs the world until idle.
func answerTwice(w *World, front func(ctx *actor.Context, msg actor.Message, leaf actor.Ref)) {
	leaf := w.RT.SpawnOn("Leaf", actor.BehaviorFunc(func(ctx *actor.Context, _ actor.Message) { ctx.Reply(nil, 8) }), 1)
	ref := w.RT.SpawnOn("Front", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) { front(ctx, msg, leaf) }), 0)
	w.Client(2).Request(ref, "get", nil, 8, nil)
	w.K.RunUntilIdle()
}

func TestWorldChaosRefusals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		floor   int
		fault   func(w *World) bool
		applied bool
	}{
		{"CrashAtFloor", 3, func(w *World) bool { return w.CrashMachine(0) }, false},
		{"CrashProtected", 0, func(w *World) bool { return w.CrashMachine(2) }, false},
		{"FailLEMProtected", 0, func(w *World) bool { return w.FailLEM(2) }, false},
		{"CrashAllowed", 0, func(w *World) bool { return w.CrashMachine(0) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := quiescedWorld(t)
			w.Manage(epl.MustParse(`true => pin(Big(b));`), emr.Config{})
			w.Chaos(1, tc.floor, 2)
			if got := tc.fault(w); got != tc.applied {
				t.Fatalf("fault applied = %v, want %v", got, tc.applied)
			}
			if !tc.applied && (w.Crashes != 0 || w.CtlFails != 0 || w.C.UpCount() != 3) {
				t.Fatalf("refused fault left a mark: crashes %d, ctlFails %d, up %d",
					w.Crashes, w.CtlFails, w.C.UpCount())
			}
			if tc.applied && (w.Crashes != 1 || w.C.UpCount() != 2) {
				t.Fatalf("applied crash not counted: crashes %d, up %d", w.Crashes, w.C.UpCount())
			}
			// A crash the world applies is followed by RecoverMachine, so the
			// sweep stays clean either way.
			if bad := w.Invariants(0); len(bad) != 0 {
				t.Fatalf("invariants after fault: %v", bad)
			}
		})
	}
}

func TestManageEndToEnd(t *testing.T) {
	w := NewWorld(1, 2, cluster.M1Small, nil)
	w.Manage(epl.MustParse(`server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);`),
		emr.Config{Period: sim.Second, MinResidence: sim.Millisecond})
	var refs []actor.Ref
	for i := 0; i < 4; i++ {
		b := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(45 * sim.Millisecond)
			ctx.SendAfter(55*sim.Millisecond, ctx.Self(), "w", nil, 8)
		})
		refs = append(refs, w.RT.SpawnOn("Worker", b, 0))
	}
	w.M.Start()
	cl := w.Client(1)
	for _, r := range refs {
		cl.Send(r, "w", nil, 8)
	}
	w.Run(10 * sim.Second)
	if len(w.RT.ActorsOn(1)) == 0 {
		t.Fatal("world did not balance load")
	}
}

// TestNewSystemSurfacesConflictWarnings asserts a policy that pins and
// balances the same type is managed, not refused, and the §4.3 conflict
// warning reaches the world's Diagnostics.
func TestNewSystemSurfacesConflictWarnings(t *testing.T) {
	w := NewWorld(1, 2, cluster.M1Small, nil)
	m := w.Manage(epl.MustParse(`
true => pin(Worker(w));
server.cpu.perc > 80 => balance({Worker}, cpu);
`), emr.Config{Period: sim.Second})
	if m == nil {
		t.Fatal("conflicting policy not managed")
	}
	found := false
	for _, d := range w.Diagnostics {
		if d.Code == epl.CodePinBalance {
			found = true
		}
	}
	if !found {
		t.Fatalf("conflict warnings not surfaced; got %v", w.Diagnostics)
	}
}
