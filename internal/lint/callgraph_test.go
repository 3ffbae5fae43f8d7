package lint

import (
	"path/filepath"
	"testing"
)

// loadCallgraphCorpus loads the synthetic two-package corpus (cga imports
// cgb) under real module import paths and builds its program.
func loadCallgraphCorpus(t *testing.T) *Program {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(
		filepath.Join("testdata", "src", "cga"),
		filepath.Join("testdata", "src", "cgb"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	return BuildProgram(pkgs)
}

func (prog *Program) funcByName(t *testing.T, pkgSuffix, name string) *FuncInfo {
	t.Helper()
	for _, fi := range prog.Functions() {
		if fi.Fn.Name() == name && pathIsAny(fi.Fn.Pkg().Path(), pkgSuffix) {
			return fi
		}
	}
	t.Fatalf("function %s.%s not in program", pkgSuffix, name)
	return nil
}

// TestCallGraph pins the structural properties of BuildProgram over the
// synthetic corpus: cross-package edges resolve, traversal order is
// deterministic, and file-to-package resolution works.
func TestCallGraph(t *testing.T) {
	prog := loadCallgraphCorpus(t)

	// Every declared function is a node.
	wantFuncs := []struct{ pkg, name string }{
		{"cga", "A"}, {"cga", "B"}, {"cga", "Rec1"}, {"cga", "Rec2"}, {"cga", "taint"},
		{"cgb", "Clock"}, {"cgb", "Pure"},
	}
	if got := len(prog.Functions()); got != len(wantFuncs) {
		t.Errorf("program has %d functions, want %d", got, len(wantFuncs))
	}
	for _, w := range wantFuncs {
		prog.funcByName(t, w.pkg, w.name)
	}

	// A's single call resolves across the package boundary to cgb.Clock.
	a := prog.funcByName(t, "cga", "A")
	clock := prog.funcByName(t, "cgb", "Clock")
	if len(a.Calls) != 1 || a.Calls[0].Callee != clock.Fn {
		t.Errorf("cga.A calls = %v, want exactly cgb.Clock", callNames(a.Calls))
	}

	// Functions() is sorted by (package path, position): all of cga before
	// cgb, and cga's functions in declaration order.
	var order []string
	for _, fi := range prog.Functions() {
		order = append(order, FuncDisplayName(fi.Fn))
	}
	want := []string{"cga.A", "cga.B", "cga.Rec1", "cga.Rec2", "cga.taint", "cgb.Clock", "cgb.Pure"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("function order = %v, want %v", order, want)
		}
	}

	// PackageOf resolves a position back to its owning package.
	if p := prog.PackageOf(prog.Fset(), a.Decl.Pos()); p != a.Pkg {
		t.Errorf("PackageOf(cga.A) = %v, want %v", p, a.Pkg)
	}
}

// TestSummaryFixpoint verifies taint propagation: direct sources, one
// cross-package hop, clean functions, and convergence through a mutual
// recursion.
func TestSummaryFixpoint(t *testing.T) {
	prog := loadCallgraphCorpus(t)

	clock := prog.funcByName(t, "cgb", "Clock")
	if len(clock.Summary.Sources) != 1 || clock.Summary.Sources[0].Kind != SrcWallClock {
		t.Errorf("cgb.Clock sources = %v, want one wall-clock read", clock.Summary.Sources)
	}
	if !clock.Summary.Reaches[SrcWallClock] {
		t.Error("cgb.Clock does not reach its own wall-clock source")
	}

	for _, tc := range []struct {
		pkg, name string
		reaches   bool
	}{
		{"cga", "A", true},
		{"cga", "B", false},
		{"cga", "Rec1", true}, // via Rec2 -> taint -> Clock, through the cycle
		{"cga", "Rec2", true},
		{"cga", "taint", true},
		{"cgb", "Pure", false},
	} {
		fi := prog.funcByName(t, tc.pkg, tc.name)
		if got := fi.Summary.Reaches[SrcWallClock]; got != tc.reaches {
			t.Errorf("%s.%s reaches wall clock = %v, want %v", tc.pkg, tc.name, got, tc.reaches)
		}
		if len(fi.Summary.Bares) != 0 {
			t.Errorf("%s.%s has unexpected bare errors %v", tc.pkg, tc.name, fi.Summary.Bares)
		}
	}
}

func callNames(calls []Call) []string {
	var out []string
	for _, c := range calls {
		out = append(out, c.Callee.FullName())
	}
	return out
}
