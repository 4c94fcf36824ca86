package engine

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/unroll"
)

// TestFrameGuidanceLeavesStepAuxUnscored: the cold portfolio's time-axis
// guidance must score circuit variables by frame and leave the step
// encoding's disequality auxiliaries (allocated past the frame-stable
// range) at zero — branching on helper variables first would defeat the
// Shtrichman ordering.
func TestFrameGuidanceLeavesStepAuxUnscored(t *testing.T) {
	u, err := unroll.New(bench.Twin(4, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	f := unroll.StepFormula(u, k)
	if f.NumVars <= u.NumVars(k+1) {
		t.Fatalf("step formula has no aux variables: %d <= %d", f.NumVars, u.NumVars(k+1))
	}
	g := frameGuidance(nil, u, k+2, f.NumVars)
	if len(g) != f.NumVars+1 {
		t.Fatalf("guidance length %d, want %d", len(g), f.NumVars+1)
	}
	for v := u.NumVars(k+1) + 1; v <= f.NumVars; v++ {
		if g[v] != 0 {
			t.Fatalf("aux var %d scored %v, want 0", v, g[v])
		}
	}
	// Circuit variables score by frame, earlier frames strictly higher.
	v0 := int(u.VarFor(u.Circuit().Latches()[0], 0))
	v3 := int(u.VarFor(u.Circuit().Latches()[0], k+1))
	if g[v0] <= g[v3] || g[v3] <= 0 {
		t.Fatalf("frame scores not decreasing: frame0=%v frame%d=%v", g[v0], k+1, g[v3])
	}
}
