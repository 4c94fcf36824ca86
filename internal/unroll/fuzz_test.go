package unroll

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// FuzzUnrollEncodings checks the four encodings — the BMC and step queries,
// each as a growing Instance and as a Delta — on random circuits, whose
// signal pool holds both constants, so constant next states and constant
// properties occur. At a fuzzed depth k ≤ 8 each must build exactly what
// Size(k) says — the bound unroll.Fits holds a peer's depth request to
// before anything is encoded — in normalised clauses over variables
// 1..NumVars(k); and its numbering must invert exactly: VarInfo reads every
// node variable VarFor(n, f) as (f, false), and every other variable —
// activation literals, simple-path auxiliaries — as an auxiliary.
func FuzzUnrollEncodings(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(12), uint8(8))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(0), uint8(4)) // no latch, a likely constant property
	f.Add(uint64(3), uint8(0), uint8(2), uint8(1), uint8(6)) // no input
	f.Add(uint64(4), uint8(3), uint8(4), uint8(20), uint8(5))
	f.Add(uint64(5), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nIn, nLatch, nGates, depth uint8) {
		c := randomCircuit(seed, int(nIn%4), int(nLatch%6), int(nGates%32))
		u, err := New(c, 0)
		if err != nil {
			t.Skip(err)
		}
		k := int(depth % 9)
		bmc, step, d, sd := u.Instance(), u.StepInstance(), u.Delta(), u.StepDelta()
		deltaFrames := func(d *Delta) []*cnf.Formula {
			fs := make([]*cnf.Formula, k+1)
			for j := range fs {
				fs[j] = d.Frame(j)
			}
			return fs
		}
		for _, e := range []struct {
			name    string
			built   []*cnf.Formula // the depth-k instance, or frames 0..k
			size    func(k int) (vars, clauses, literals int)
			frames  int
			varFor  func(n circuit.NodeID, frame int) lits.Var
			varInfo func(v lits.Var) (frame int, aux bool)
			actLit  func(k int) lits.Lit // nil for an Instance
			lead    int
		}{
			{"bmc instance", []*cnf.Formula{bmc.Extend(k)}, bmc.Size, k + 1, u.VarFor, bmc.VarInfo, nil, 0},
			{"step instance", []*cnf.Formula{step.Extend(k)}, step.Size, k + 2, u.VarFor, step.VarInfo, nil, 0},
			{"delta", deltaFrames(d), d.Size, d.Frames(k), d.VarFor, d.VarInfo, d.ActLit, 0},
			{"step delta", deltaFrames(sd), sd.Size, sd.Frames(k), sd.VarFor, sd.VarInfo, sd.ActLit, 1},
		} {
			nVars := e.built[len(e.built)-1].NumVars
			clauses, literals := 0, 0
			for j, fm := range e.built {
				clauses, literals = clauses+fm.NumClauses(), literals+fm.NumLiterals()
				normalised(t, e.name, fm)
				for i, cl := range fm.Clauses {
					for _, l := range cl {
						if l.Var() < 1 || int(l.Var()) > fm.NumVars || fm.NumVars > nVars {
							t.Fatalf("%s depth %d, formula %d clause %d: %v outside variables 1..%d of %d",
								e.name, k, j, i, cl, fm.NumVars, nVars)
						}
					}
				}
			}
			if sv, sc, sl := e.size(k); sv != nVars || sc != clauses || sl != literals {
				t.Fatalf("%s depth %d: Size says %d variables, %d clauses, %d literals; built %d, %d, %d",
					e.name, k, sv, sc, sl, nVars, clauses, literals)
			}

			node := make([]bool, nVars+1)
			for frame := 0; frame < e.frames; frame++ {
				for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
					v := e.varFor(n, frame)
					if v < 1 || int(v) > nVars || node[v] {
						t.Fatalf("%s depth %d: VarFor(%d, %d) = %d, taken or outside 1..%d", e.name, k, n, frame, v, nVars)
					}
					node[v] = true
					if gf, aux := e.varInfo(v); gf != frame || aux {
						t.Fatalf("%s depth %d: VarInfo(VarFor(%d, %d)) = (%d, %v)", e.name, k, n, frame, gf, aux)
					}
				}
			}
			for v := 1; v <= nVars; v++ {
				if _, aux := e.varInfo(lits.Var(v)); aux == node[v] {
					t.Fatalf("%s depth %d: VarInfo(%d) reads aux = %v, want %v: aux exactly when no node maps to it", e.name, k, v, aux, !node[v])
				}
			}
			for j := 0; e.actLit != nil && j <= k; j++ {
				act := e.actLit(j).Var()
				if gf, aux := e.varInfo(act); int(act) > nVars || !aux || gf != j+e.lead {
					t.Fatalf("%s depth %d: act %d is variable %d, VarInfo (%d, %v); want aux of frame %d",
						e.name, k, j, act, gf, aux, j+e.lead)
				}
			}
		}
	})
}
