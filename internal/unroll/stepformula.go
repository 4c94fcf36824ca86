package unroll

import (
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// StepFormula builds the induction step instance of depth k over the
// unroller's circuit: frames 0..k+1 connected by the transition relation
// with NO initial-state constraint, the property's bad signal false in
// frames 0..k and asserted in frame k+1, and pairwise state disequality
// between all frames (the simple-path constraint that makes k-induction
// complete on finite systems).
//
// Auxiliary variables for the disequality encoding are allocated past the
// unroller's frame-stable range, so bmc_score transfer on circuit
// variables is unaffected.
func StepFormula(u *Unroller, k int) *cnf.Formula {
	c := u.Circuit()
	frames := k + 2 // frames 0..k+1
	f := cnf.New(u.NumVars(k + 1))
	// Gates and transitions, one property unit per frame, and for each of
	// the (k+1)k/2 frame pairs two clauses per latch and their disjunction.
	f.Clauses = make([]cnf.Clause, 0,
		u.maxClauses(frames)+frames+(k+1)*k/2*(2*c.NumLatches()+1))

	// Gate relations in every frame.
	for frame := 0; frame < frames; frame++ {
		for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
			if c.Kind(n) != circuit.KindAnd {
				continue
			}
			f0, f1 := c.Fanins(n)
			out := lits.PosLit(u.VarFor(n, frame))
			f.AddAnd2(out, u.LitFor(f0, frame), u.LitFor(f1, frame))
		}
	}
	// Latch transitions.
	for frame := 0; frame < frames-1; frame++ {
		for _, id := range c.Latches() {
			next := c.LatchNext(id)
			lhs := lits.PosLit(u.VarFor(id, frame+1))
			switch next {
			case circuit.True:
				f.AddUnit(lhs)
			case circuit.False:
				f.AddUnit(lhs.Neg())
			default:
				f.AddEq(lhs, u.LitFor(next, frame))
			}
		}
	}

	// Property: good in frames 0..k, bad in frame k+1.
	bad := c.Properties()[u.PropIdx()].Bad
	switch bad {
	case circuit.True, circuit.False:
		// Constant properties need no step reasoning; emit the trivial
		// encoding (bad const true: frames 0..k unsatisfiable; const
		// false: bad frame unsatisfiable).
		if bad == circuit.True && k >= 0 {
			f.AddClause(cnf.Clause{})
		}
		if bad == circuit.False {
			f.AddClause(cnf.Clause{})
		}
		return f
	}
	for frame := 0; frame <= k; frame++ {
		f.AddUnit(u.LitFor(bad, frame).Neg())
	}
	f.AddUnit(u.LitFor(bad, k+1))

	// Simple path: states of frames 0..k pairwise distinct. For each pair
	// i<j introduce one diff variable per latch (diff ↔ latch_i ⊕ latch_j
	// one direction suffices: diff → xor) and require OR(diffs).
	latches := c.Latches()
	aux := u.NumVars(k + 1)
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			or := make(cnf.Clause, 0, len(latches))
			for _, id := range latches {
				aux++
				d := lits.PosLit(lits.Var(aux))
				a := lits.PosLit(u.VarFor(id, i))
				b := lits.PosLit(u.VarFor(id, j))
				// d → (a ⊕ b): clauses (¬d ∨ a ∨ b) ∧ (¬d ∨ ¬a ∨ ¬b).
				f.AddClause(cnf.Clause{d.Neg(), a, b})
				f.AddClause(cnf.Clause{d.Neg(), a.Neg(), b.Neg()})
				or = append(or, d)
			}
			f.AddClause(or)
		}
	}
	f.NumVars = aux
	return f
}
