package unroll

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// Delta is the incremental counterpart of Formula: instead of rebuilding
// the whole length-k instance, Frame(k) returns only the clauses *new* at
// depth k, so a live solver (sat.Solver.AddClause) can accumulate the
// unrolling one frame at a time across a whole BMC run.
//
// The property constraint is the one part of Eq. 1 that must be retracted
// between depths (depth k asserts ¬P(Vᵏ), depth k+1 must not), which clause
// addition alone cannot express. Each depth's property literal is therefore
// guarded by a fresh activation literal actₖ:
//
//	(¬actₖ ∨ badₖ)
//
// Solving depth k assumes actₖ (sat.SolveAssuming), which makes the guard
// behave exactly like the scratch instance's unit clause; Frame(k+1) then
// adds the unit ¬actₖ, permanently neutralizing the depth-k guard.
//
// Variable numbering reserves one activation slot per frame: node n in
// frame f maps to 1 + f·(stride+1) + (n−1) and actₖ is variable
// (k+1)·(stride+1). Numbering is still frame-stable — the depth-k variable
// set is a prefix of the depth-(k+1) set — so unsat-core scores transfer
// across depths exactly as with Formula, and the variable range stays dense
// (no gaps for the decision heap to branch on).
type Delta struct {
	u       *Unroller
	stride  int // node slots plus one activation slot per frame
	metrics *Metrics
}

// Delta returns the incremental view of the unroller.
func (u *Unroller) Delta() *Delta {
	return &Delta{u: u, stride: u.stride + 1}
}

// Unroller returns the underlying whole-instance unroller.
func (d *Delta) Unroller() *Unroller { return d.u }

// Stride returns the number of CNF variables per time frame (including the
// frame's activation slot).
func (d *Delta) Stride() int { return d.stride }

// NumVars returns the variable count once frames 0..k have been added.
func (d *Delta) NumVars(k int) int { return d.stride * (k + 1) }

// VarFor returns the CNF variable of node n in frame f under the delta
// numbering. The constant node has no variable.
func (d *Delta) VarFor(n circuit.NodeID, frame int) lits.Var {
	if n == circuit.ConstNode {
		panic("unroll: the constant node has no CNF variable")
	}
	return lits.Var(1 + frame*d.stride + int(n) - 1)
}

// ActVar returns the activation variable guarding the depth-k property.
func (d *Delta) ActVar(k int) lits.Var { return lits.Var((k + 1) * d.stride) }

// ActLit returns the positive activation literal assumed when solving
// depth k.
func (d *Delta) ActLit(k int) lits.Lit { return lits.PosLit(d.ActVar(k)) }

// NodeOf inverts VarFor: it returns the circuit node and frame of CNF
// variable v, or isAct = true when v is a frame's activation variable (in
// which case the node is meaningless and frame is the guarded depth).
func (d *Delta) NodeOf(v lits.Var) (n circuit.NodeID, frame int, isAct bool) {
	idx := int(v) - 1
	if idx%d.stride == d.stride-1 {
		return 0, idx / d.stride, true
	}
	return circuit.NodeID(idx%d.stride + 1), idx / d.stride, false
}

// Size returns the variable, clause and literal counts of Frame(0..k)
// taken together, without building them: the closed form of Frame, which
// must follow it exactly. Size(-1) is all zero.
func (d *Delta) Size(k int) (vars, clauses, literals int) {
	if k < 0 {
		return 0, 0, 0
	}
	c := d.u.c
	ands, latches := c.NumAnds(), c.NumLatches()
	tc, tl := d.u.transition()
	gc, gl := d.u.guard()
	// The initial values; per later depth its transitions and the unit
	// retiring the last guard; per depth its gates and its guard.
	return d.NumVars(k),
		latches + k*(tc+1) + (k+1)*(3*ands+gc),
		latches + k*(tl+1) + (k+1)*(7*ands+gl)
}

// LitFor returns the CNF literal of signal s in frame f; it panics on
// constant signals (callers must fold those).
func (d *Delta) LitFor(s circuit.Signal, frame int) lits.Lit {
	return lits.MkLit(d.VarFor(s.Node(), frame), s.IsNeg())
}

// Frame builds the clauses new at depth k: frame-k gate relations, the
// latch transitions from frame k−1 (initial values for k = 0), the guarded
// depth-k property, and — for k > 0 — the unit retiring the depth-(k−1)
// guard. The union of Frame(0..k), with actₖ assumed, is equisatisfiable
// with Formula(k).
func (d *Delta) Frame(k int) *cnf.Formula {
	if k < 0 {
		panic(fmt.Sprintf("unroll: negative depth %d", k))
	}
	var buildStart time.Time
	if d.metrics != nil {
		buildStart = time.Now()
	}
	c := d.u.c
	_, clauses, literals := d.Size(k - 1)
	_, clausesTo, literalsTo := d.Size(k)
	f := &cnf.Formula{
		NumVars: d.NumVars(k),
		Lits:    make([]lits.Lit, 0, literalsTo-literals),
		Ends:    make([]int32, 0, clausesTo-clauses),
	}

	if k == 0 {
		// I(V⁰): initial latch values.
		for _, id := range c.Latches() {
			v := d.VarFor(id, 0)
			f.AddUnit(lits.MkLit(v, !c.LatchInit(id).IsTrue()))
		}
	} else {
		// Latch transitions from frame k−1 to frame k.
		for _, id := range c.Latches() {
			next := c.LatchNext(id)
			lhs := lits.PosLit(d.VarFor(id, k))
			switch next {
			case circuit.True:
				f.AddUnit(lhs)
			case circuit.False:
				f.AddUnit(lhs.Neg())
			default:
				f.AddEq(lhs, d.LitFor(next, k-1))
			}
		}
		// Retire the previous depth's property guard for good.
		f.AddUnit(d.ActLit(k - 1).Neg())
	}

	// Gate relations in frame k.
	for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
		if c.Kind(n) != circuit.KindAnd {
			continue
		}
		f0, f1 := c.Fanins(n)
		out := lits.PosLit(d.VarFor(n, k))
		f.AddAnd2(out, d.LitFor(f0, k), d.LitFor(f1, k))
	}

	// actₖ → ¬P(Vᵏ): the guarded bad signal in frame k.
	bad := c.Properties()[d.u.propIdx].Bad
	switch bad {
	case circuit.True:
		// Property constantly violated: every execution is a witness, the
		// guard constrains nothing (matching Formula's empty encoding).
	case circuit.False:
		// Property can never be violated: assuming actₖ must fail, exactly
		// as Formula's empty clause makes the scratch instance unsat.
		f.AddUnit(d.ActLit(k).Neg())
	default:
		// Normalised as every clause here: actₖ is numbered past frame k.
		f.AddClause(cnf.Clause{d.LitFor(bad, k), d.ActLit(k).Neg()})
	}
	d.metrics.observe(buildStart, f)
	return f
}

// ExtractTrace decodes a satisfying model of the incremental depth-k solve
// into a concrete input sequence and state trajectory (the delta-numbering
// counterpart of Unroller.ExtractTrace).
func (d *Delta) ExtractTrace(model lits.Assignment, k int) *Trace {
	c := d.u.c
	tr := &Trace{Depth: k}
	for frame := 0; frame <= k; frame++ {
		in := make([]bool, c.NumInputs())
		for i, id := range c.Inputs() {
			in[i] = model.Value(d.VarFor(id, frame)).IsTrue()
		}
		st := make([]bool, c.NumLatches())
		for i, id := range c.Latches() {
			st[i] = model.Value(d.VarFor(id, frame)).IsTrue()
		}
		tr.Inputs = append(tr.Inputs, in)
		tr.States = append(tr.States, st)
	}
	return tr
}
