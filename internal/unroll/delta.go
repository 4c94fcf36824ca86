package unroll

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// Delta is the incremental counterpart of Instance: instead of rebuilding
// the whole depth-k query, Frame(k) returns only the clauses *new* at depth
// k, so a live solver (sat.Solver.AddClause) can accumulate the query one
// frame at a time across a whole run. Unroller.Delta encodes the BMC query
// (also the base case of k-induction), Unroller.StepDelta the k-induction
// step query,
//
//	⋀_{0≤i≤k+1} Gates(Vⁱ) ∧ ⋀_{0≤i≤k} T(Vⁱ, Vⁱ⁺¹)     (no initial constraint)
//	∧ ⋀_{0≤i≤k} P(Vⁱ) ∧ ¬P(Vᵏ⁺¹)
//	∧ ⋀_{0≤i<j≤k} state(Vⁱ) ≠ state(Vʲ)               (simple path).
//
// Almost all of either query is monotone in k: the gate relations, the
// transitions, the step query's good frames P(Vⁱ) and its pairwise
// disequalities are all still asserted at depth k+1, so they are added once
// and never retracted. The one per-depth piece is the bad literal — ¬P(Vᵏ)
// for BMC, ¬P(Vᵏ⁺¹) for the step — which clause addition alone cannot take
// back. Each depth's bad literal is therefore guarded by a fresh activation
// literal actₖ,
//
//	(¬actₖ ∨ bad),
//
// solved under the assumption actₖ (sat.SolveAssuming), which makes the
// guard behave exactly like the scratch instance's unit clause; Frame(k+1)
// then adds the unit ¬actₖ, permanently neutralizing the depth-k guard (in
// the step query the new good unit then takes over its frame).
//
// Variables are numbered depth by depth (numbering): the BMC query's block
// is a frame and its activation variable, the step query's the new frame,
// its activation variable and the disequality auxiliaries of the new frame
// pairs (frames 0 and 1 both belong to depth 0's).
type Delta struct {
	numbering
	u       *Unroller
	step    bool // the k-induction step query, not the BMC one
	metrics *Metrics
}

// Delta returns the incremental view of the unroller's BMC query.
func (u *Unroller) Delta() *Delta {
	return &Delta{numbering: numbering{c: u.c, stride: u.stride, act: 1}, u: u}
}

// StepDelta returns the incremental view of the unroller's k-induction step
// query.
func (u *Unroller) StepDelta() *Delta {
	nb := numbering{c: u.c, stride: u.stride, lead: 1, act: 1, pairAux: u.c.NumLatches()}
	return &Delta{numbering: nb, u: u, step: true}
}

// Unroller returns the underlying whole-instance unroller.
func (d *Delta) Unroller() *Unroller { return d.u }

// Step reports whether the sequence is the k-induction step query's.
func (d *Delta) Step() bool { return d.step }

// Frames returns the number of time frames the depth-k instance spans:
// k+1 for the BMC query, k+2 for the step query.
func (d *Delta) Frames(k int) int { return k + 1 + d.lead }

// ActLit returns the positive activation literal assumed when solving
// depth k.
func (d *Delta) ActLit(k int) lits.Lit {
	return lits.PosLit(lits.Var(d.base(k+d.lead) + d.stride))
}

// Size returns the variable, clause and literal counts of Frame(0..k)
// taken together, without building them: the closed form of Frame, which
// must follow it exactly. Size(-1) is all zero. The step query's simple
// path makes it quadratic in k.
func (d *Delta) Size(k int) (vars, clauses, literals int) {
	if k < 0 {
		return 0, 0, 0
	}
	// The body; per depth its guard, per depth past 0 the unit retiring
	// the last guard.
	clauses, literals = d.u.body(d.Frames(k), !d.step)
	gc, gl := d.u.guard()
	clauses, literals = clauses+k+(k+1)*gc, literals+k+(k+1)*gl
	if d.step {
		// Per depth a good frame: P constantly violated asserts the empty
		// clause, P never violated nothing, any other P the unit ¬bad. Per
		// frame pair the disequality clauses.
		goodC, goodL := 1, 1
		switch d.u.c.Properties()[d.u.propIdx].Bad {
		case circuit.True:
			goodL = 0
		case circuit.False:
			goodC, goodL = 0, 0
		}
		pairs := k * (k + 1) / 2
		clauses += (k+1)*goodC + pairs*(2*d.pairAux+1)
		literals += (k+1)*goodL + pairs*7*d.pairAux
	}
	return d.NumVars(k), clauses, literals
}

// Frame builds the clauses new at depth k: the gate relations of the new
// frames, the transitions into them (the initial values for BMC depth 0),
// the unit retiring the depth-(k−1) guard, the step query's good unit for
// frame k and its disequalities between frame k and every earlier frame,
// and the guarded depth-k bad literal. The union of Frame(0..k), with actₖ
// assumed, is equisatisfiable with the depth-k Instance.
func (d *Delta) Frame(k int) *cnf.Formula {
	if k < 0 {
		panic(fmt.Sprintf("unroll: negative depth %d", k))
	}
	var buildStart time.Time
	if d.metrics != nil {
		buildStart = time.Now()
	}
	_, clauses, literals := d.Size(k - 1)
	_, clausesTo, literalsTo := d.Size(k)
	f := &cnf.Formula{
		NumVars: d.NumVars(k),
		Lits:    make([]lits.Lit, 0, literalsTo-literals),
		Ends:    make([]int32, 0, clausesTo-clauses),
	}
	bad := d.c.Properties()[d.u.propIdx].Bad
	last := k + d.lead // the depth's bad frame, the last it adds

	// The step query's gates come first, the BMC query's after the
	// transitions: each keeps the clause order it was built with.
	if d.step {
		if k == 0 {
			d.gates(f, 0)
		}
		d.gates(f, last)
	}
	if last == 0 {
		d.initial(f)
	} else {
		d.transitions(f, last-1)
	}
	if k > 0 {
		// Retire the previous depth's guard for good.
		f.AddUnit(d.ActLit(k - 1).Neg())
	}
	if d.step {
		// good(k): P holds, i.e. the bad signal is false.
		switch bad {
		case circuit.True:
			// P constantly violated: no good frame exists, exactly as the
			// step Instance's empty clause makes it unsat.
			f.AddClause(nil)
		case circuit.False:
			// P trivially holds; nothing to assert.
		default:
			f.AddUnit(d.LitFor(bad, k).Neg())
		}
		// Simple path: frame k differs from every earlier frame, the
		// pairs' auxiliaries numbered after actₖ in turn.
		aux := d.ActLit(k).Var() + 1
		for i := 0; i < k; i++ {
			d.distinct(f, i, k, aux+lits.Var(i*d.pairAux))
		}
	} else {
		d.gates(f, k)
	}

	// actₖ → bad: the guarded bad literal of this depth.
	switch bad {
	case circuit.True:
		// Constantly violated: every execution is a witness and the guard
		// constrains nothing (the step query's good frames made it unsat).
	case circuit.False:
		// Never violated: assuming actₖ must fail, exactly as the scratch
		// instance's empty clause.
		f.AddUnit(d.ActLit(k).Neg())
	default:
		// Normalised as every clause here: actₖ follows the bad frame.
		f.AddClause(cnf.Clause{d.LitFor(bad, last), d.ActLit(k).Neg()})
	}
	d.metrics.observe(buildStart, f)
	return f
}
