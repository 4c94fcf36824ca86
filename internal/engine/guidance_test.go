package engine

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/unroll"
)

// TestFrameGuidanceLeavesStepAuxUnscored: the time-axis guidance of the one
// strategy rule (core.Strategy.Guidance) must score every circuit variable
// of frame f at Frames−f, earlier frames higher, and leave the step
// encoding's auxiliaries — disequality helpers, and on the warm numbering
// activation guards — at zero: branching on helper variables first would
// defeat the Shtrichman ordering. The scratch step instance (freshSeq) and
// the step delta (the warm pool's source) lay the same query out in
// different numberings and go through the same function; which variables
// are circuit variables is derived from each numbering's VarFor, not from
// the VarInfo under test.
func TestFrameGuidanceLeavesStepAuxUnscored(t *testing.T) {
	u, err := unroll.New(bench.Twin(4, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	inst := u.StepInstance()
	f := inst.Extend(k)
	sd := u.StepDelta()
	for _, c := range []struct {
		name   string
		in     core.Layout
		varFor func(n circuit.NodeID, frame int) lits.Var
	}{
		{"scratch", core.Layout{NumVars: f.NumVars, Frames: inst.Frames(), VarInfo: inst.VarInfo}, u.VarFor},
		{"warm", core.Layout{NumVars: sd.NumVars(k), Frames: sd.Frames(k), VarInfo: sd.VarInfo}, sd.VarFor},
	} {
		g, switchAfter := core.OrderTimeAxis.Guidance(nil, c.in, f.NumLiterals(), core.SwitchDivisor, nil)
		if len(g) != c.in.NumVars+1 || switchAfter != 0 {
			t.Fatalf("%s: guidance length %d, switch %d; want %d, 0", c.name, len(g), switchAfter, c.in.NumVars+1)
		}
		want := make([]float64, len(g))
		for frame := 0; frame < k+2; frame++ {
			for n := circuit.NodeID(1); int(n) < u.Circuit().NumNodes(); n++ {
				want[c.varFor(n, frame)] = float64(k + 2 - frame)
			}
		}
		aux := 0
		for v := 1; v <= c.in.NumVars; v++ {
			if want[v] == 0 {
				aux++
			}
			if g[v] != want[v] {
				t.Fatalf("%s: variable %d scored %v, want %v", c.name, v, g[v], want[v])
			}
		}
		if aux == 0 {
			t.Fatalf("%s: the depth-%d step instance has no auxiliary variables", c.name, k)
		}
	}
}
