package unroll

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// numbering is the one map from circuit nodes to CNF variables: node n of
// time frame f is variable base(f) + n − 1, every node but the constant
// having a variable in every frame. The scratch numbering (Unroller,
// Instance) lays the frames end to end, base(f) = 1 + f·stride. The
// persistent sequences (Delta) number depth by depth instead, each depth
// appending a block: the frames new at that depth, act activation
// variables, and pairAux simple-path auxiliaries for each frame pair the
// depth adds. The BMC sequence's block is one frame and its activation
// variable, base(f) = 1 + f·(stride+1); the step sequence's depth-0 block
// holds frames 0 and 1 (lead = 1), and its depth-k block the k pairs (i, k)
// past its frame and activation variable.
//
// Every layout is frame-stable — the depth-k variables are a prefix of the
// depth-(k+1) ones — and dense, so unsat-core scores keep their variables
// from one depth to the next, and the decision heap has no gaps to branch
// on.
type numbering struct {
	c       *circuit.Circuit
	stride  int // node variables per frame: every node except the constant
	lead    int // frames depth 0's block holds past frame 0
	act     int // activation variables per block
	pairAux int // auxiliaries per frame pair: the latch count, or 0
}

// base returns the variable of node 1 in frame f.
func (nb *numbering) base(frame int) int {
	k := max(frame-nb.lead, 0) // the depth whose block holds the frame
	return 1 + frame*nb.stride + k*nb.act + nb.pairAux*k*(k-1)/2
}

// frameVars is one time frame of a numbering: node n is variable
// frameVars + n. Encoders take it once per frame.
type frameVars int

func (nb *numbering) frame(f int) frameVars { return frameVars(nb.base(f) - 1) }

// varOf returns the variable of node n. The constant node has none.
func (fv frameVars) varOf(n circuit.NodeID) lits.Var {
	if n == circuit.ConstNode {
		panic("unroll: the constant node has no CNF variable")
	}
	return lits.Var(int(fv) + int(n))
}

// lit returns the literal of signal s; it panics on constant signals
// (callers must fold those).
func (fv frameVars) lit(s circuit.Signal) lits.Lit { return lits.MkLit(fv.varOf(s.Node()), s.IsNeg()) }

// VarFor returns the CNF variable of node n in frame f. The constant node
// has no variable.
func (nb *numbering) VarFor(n circuit.NodeID, frame int) lits.Var { return nb.frame(frame).varOf(n) }

// LitFor returns the CNF literal of signal s in frame f; it panics on
// constant signals (callers must fold those).
func (nb *numbering) LitFor(s circuit.Signal, frame int) lits.Lit { return nb.frame(frame).lit(s) }

// NumVars returns the variable count of the depth-k instance: of frames
// 0..k under the scratch numbering, of the blocks of depths 0..k under a
// persistent one.
func (nb *numbering) NumVars(k int) int { return nb.base(k+nb.lead+1) - 1 }

// VarInfo classifies variable v of the numbering's range: its time frame,
// and whether it is an auxiliary of the encoding — an activation variable
// or a simple-path helper, read as the frame its depth's block adds.
// Time-axis guidance leaves auxiliaries unscored, and core extraction
// skips them.
func (nb *numbering) VarInfo(v lits.Var) (frame int, aux bool) {
	if nb.lead == 0 && nb.pairAux == 0 {
		frame = (int(v) - 1) / (nb.stride + nb.act)
	} else {
		frame = sort.Search(int(v)+1, func(f int) bool { return nb.base(f+1) > int(v) })
	}
	return frame, int(v)-nb.base(frame) >= nb.stride
}

// ExtractTrace decodes a satisfying model of the depth-k BMC query into a
// concrete input sequence and state trajectory.
func (nb *numbering) ExtractTrace(model lits.Assignment, k int) *Trace {
	c := nb.c
	tr := &Trace{Depth: k}
	for frame := 0; frame <= k; frame++ {
		fv := nb.frame(frame)
		in := make([]bool, c.NumInputs())
		for i, id := range c.Inputs() {
			in[i] = model.Value(fv.varOf(id)).IsTrue()
		}
		st := make([]bool, c.NumLatches())
		for i, id := range c.Latches() {
			st[i] = model.Value(fv.varOf(id)).IsTrue()
		}
		tr.Inputs = append(tr.Inputs, in)
		tr.States = append(tr.States, st)
	}
	return tr
}

// The emitters below append the clauses every encoding shares straight to
// a flat formula's literals and end offsets, leaving its variable count to
// the caller. Every clause is emitted normalised, in the form the solver
// stores it: literals strictly ascending, no duplicate, no tautology.
// circuit.And orders an AND gate's fanins by node and folds a∧a and a∧¬a,
// nodes are numbered topologically, and a later frame's variables are all
// above an earlier one's, so the clauses are ascending as they are written
// down and loading them sorts nothing (cnf.NormalizeLits).

// initial appends I(V⁰): a unit per latch, its initial value.
func (nb *numbering) initial(f *cnf.Formula) {
	fv := nb.frame(0)
	for _, id := range nb.c.Latches() {
		f.Lits = append(f.Lits, lits.MkLit(fv.varOf(id), !nb.c.LatchInit(id).IsTrue()))
		f.Ends = append(f.Ends, int32(len(f.Lits)))
	}
}

// gates appends the gate relations of a frame (the combinational part of
// T, plus the property cone): out ↔ (a ∧ b) per AND gate, as (a ∨ ¬out),
// (b ∨ ¬out), (¬a ∨ ¬b ∨ out), with a < b < out.
func (nb *numbering) gates(f *cnf.Formula, frame int) {
	c, fv := nb.c, nb.frame(frame)
	ls, ends := f.Lits, f.Ends
	for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
		if c.Kind(n) != circuit.KindAnd {
			continue
		}
		f0, f1 := c.Fanins(n)
		out, a, b := lits.PosLit(fv.varOf(n)), fv.lit(f0), fv.lit(f1)
		ls = append(ls, a, out.Neg(), b, out.Neg(), a.Neg(), b.Neg(), out)
		end := int32(len(ls))
		ends = append(ends, end-5, end-3, end)
	}
	f.Lits, f.Ends = ls, ends
}

// transitions appends the latch transitions from a frame into the next:
// the unit of a constant next state, else lhs ↔ next as (next ∨ ¬lhs),
// (¬next ∨ lhs), whose next lies in the earlier frame, so next < lhs.
func (nb *numbering) transitions(f *cnf.Formula, frame int) {
	c, now, then := nb.c, nb.frame(frame), nb.frame(frame+1)
	ls, ends := f.Lits, f.Ends
	for _, id := range c.Latches() {
		lhs := lits.PosLit(then.varOf(id))
		switch next := c.LatchNext(id); next {
		case circuit.True:
			ls = append(ls, lhs)
		case circuit.False:
			ls = append(ls, lhs.Neg())
		default:
			rhs := now.lit(next)
			ls = append(ls, rhs, lhs.Neg(), rhs.Neg(), lhs)
			ends = append(ends, int32(len(ls)-2))
		}
		ends = append(ends, int32(len(ls)))
	}
	f.Lits, f.Ends = ls, ends
}

// distinct appends one pair of the simple-path constraint: the states of
// frames i < j differ. Latch l gets the auxiliary d = aux+l, numbered past
// frame j, with d → latchᵢ ⊕ latchⱼ as (a ∨ b ∨ ¬d), (¬a ∨ ¬b ∨ ¬d) — one
// direction suffices — and the pair the clause OR(d).
func (nb *numbering) distinct(f *cnf.Formula, i, j int, aux lits.Var) {
	fi, fj := nb.frame(i), nb.frame(j)
	ls, ends := f.Lits, f.Ends
	latches := nb.c.Latches()
	for l, id := range latches {
		d := lits.PosLit(aux + lits.Var(l))
		a, b := lits.PosLit(fi.varOf(id)), lits.PosLit(fj.varOf(id))
		ls = append(ls, a, b, d.Neg(), a.Neg(), b.Neg(), d.Neg())
		ends = append(ends, int32(len(ls)-3), int32(len(ls)))
	}
	for l := range latches {
		ls = append(ls, lits.PosLit(aux+lits.Var(l)))
	}
	f.Lits, f.Ends = ls, append(ends, int32(len(ls)))
}
