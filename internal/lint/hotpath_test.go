package lint_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestHotPath(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.HotPath}, "b/internal/sat")
}

// TestHotPathCrossPackage: the hp2 corpus's solver calls into a
// dependency whose time.Now sits two hops deep; the finding at the
// call site exists only because the dependency's fact flattened its
// transitive ops. The corpus also exercises every heap-allocation
// check and both roots.
func TestHotPathCrossPackage(t *testing.T) {
	linttest.RunDeps(t, ".", []*lint.Analyzer{lint.HotPath},
		"hp2/internal/obs", "hp2/internal/sat")
}

// TestHotPathPreFactsMisses proves the cross-package finding is
// fact-borne: analyzing the solver package alone (empty fact store —
// the pre-facts, package-local view) must not produce it, while the
// local heap findings survive.
func TestHotPathPreFactsMisses(t *testing.T) {
	pkg, err := linttest.Load(".", "hp2/internal/sat")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.HotPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "reaches time.Now") {
			t.Errorf("fact-blind run produced the cross-package finding: %s", d)
		}
		local++
	}
	if local == 0 {
		t.Error("fact-blind run lost the package-local findings too")
	}
}

// TestHotPathOtherPackages: the analyzer reports only in the solver
// package; identical constructs elsewhere are not on the hot path, so
// a corpus full of litsafe bait must produce zero hotpath findings.
func TestHotPathOtherPackages(t *testing.T) {
	pkg, err := linttest.Load(".", "a/use")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.HotPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside %s: %s", "internal/sat", d)
	}
}

// TestHotPathRoots pins the root set: solve is the CDCL loop,
// analyzeFinal the per-answer core extraction. Changing the set is a
// contract change and must be deliberate.
func TestHotPathRoots(t *testing.T) {
	want := []string{"(*Solver).solve", "(*Solver).analyzeFinal"}
	if got := lint.HotPathRoots(); !reflect.DeepEqual(got, want) {
		t.Errorf("HotPathRoots() = %v, want %v", got, want)
	}
}
