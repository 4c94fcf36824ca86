package unroll

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// Instance is one query's whole-instance formula under the unroller's
// scratch numbering, grown in place from depth to depth: Extend(k) makes it
// the length-k instance out of whatever shorter instance it holds, encoding
// only the frames that are new. It is the one encoder of that numbering —
// Formula and StepFormula are an Instance extended once.
//
// The clause list keeps the order a one-shot build gives it,
//
//	[initial values] [gates of frames 0..n] [transitions 0..n-1] [tail]
//
// (the step query has no initial values), so a clause's index — its proof
// ID, its place in every watch list, the level-0 trail's order — does not
// depend on how the instance got to its depth. The gates and transitions
// are the body: frame-stable, encoded once and kept. Growing by a frame
// inserts its gate clauses after the last frame's, which moves the
// transition headers up by that many places, and appends its transitions.
// The tail is what a depth asserts about its last frame and nothing deeper
// may keep — the BMC property unit; the step query's good and bad units
// and its simple-path constraint, whose auxiliary variables are numbered
// past the depth's frames — and is built anew at every depth.
//
// Every clause is emitted normalised, in the form the solver stores it:
// literals strictly ascending, no duplicate, no tautology. circuit.And
// orders an AND gate's fanins by node and folds a∧a and a∧¬a, nodes are
// numbered topologically, and a later frame's variables are all above an
// earlier one's, so the clauses below are ascending as they are written
// down and loading them sorts nothing (cnf.NormalizeLits).
//
// Extend rewrites the clause list it returned before. Literal arrays are
// never rewritten: a cnf.Clause taken from an earlier depth stays what it
// was.
type Instance struct {
	u    *Unroller
	step bool // the k-induction step query, not the BMC one
	f    cnf.Formula
	// slabs holds the body's literals, one array per extension; the body's
	// clauses are headers over them.
	slabs []bodySlab
	// room is what the next replacement of the clause list makes room for
	// (Grow); without a hint the list is replaced by one of exactly the
	// length it needs.
	room int

	frames   int // time frames whose gates the body holds
	gatesEnd int // Clauses[:gatesEnd]: initial values and gates
	bodyEnd  int // Clauses[gatesEnd:bodyEnd]: transitions; the tail follows
	bodyLits int // literals in Clauses[:bodyEnd]
	numLits  int // literals in Clauses

	// constNext marks the latches whose next state is a constant: their
	// transition is a unit clause instead of an equivalence's two binary
	// ones. transClauses and transLits are one step's totals.
	constNext               []bool
	transClauses, transLits int
}

// bodySlab is the literals of the clauses one extension added to the body,
// back to back: the initial values (units), the gates of its frames (per
// AND gate two binary clauses and a ternary one), the transitions of its
// steps (per latch a unit or two binary clauses).
type bodySlab struct {
	lits                 []lits.Lit
	units, frames, steps int
}

// Instance returns an empty growing instance of the BMC query: Extend(k)
// makes it Formula(k).
func (u *Unroller) Instance() *Instance { return u.newInstance(false) }

// StepInstance returns an empty growing instance of the k-induction step
// query: Extend(k) makes it StepFormula(u, k).
func (u *Unroller) StepInstance() *Instance { return u.newInstance(true) }

func (u *Unroller) newInstance(step bool) *Instance {
	in := &Instance{u: u, step: step}
	for _, id := range u.c.Latches() {
		next := u.c.LatchNext(id)
		in.constNext = append(in.constNext, next == circuit.True || next == circuit.False)
	}
	in.transClauses, in.transLits = u.transition()
	return in
}

// NumLiterals is Extend's formula's NumLiterals, kept as the instance
// grows instead of counted over every clause.
func (in *Instance) NumLiterals() int { return in.numLits }

// Size returns the variable, clause and literal counts of Extend(k)'s
// formula without building it: the closed form of the encoding below, which
// must follow it exactly.
func (in *Instance) Size(k int) (vars, clauses, literals int) {
	frames := in.framesAt(k)
	ands := in.u.c.NumAnds()
	units := 0
	if !in.step {
		units = len(in.constNext) // I(V⁰): one per latch
	}
	tailClauses, tailLits, aux := in.tail(k)
	return in.u.NumVars(frames-1) + aux,
		units + frames*3*ands + (frames-1)*in.transClauses + tailClauses,
		units + frames*7*ands + (frames-1)*in.transLits + tailLits
}

// Grow sizes the clause list ahead for depth k, like slices.Grow, but only
// records the size: the next Extend that has to replace the list makes it
// room for Size(k)'s clauses, and an instance never extended past its list
// allocates nothing for it.
func (in *Instance) Grow(k int) { _, in.room, _ = in.Size(k) }

// framesAt returns the number of time frames of the depth-k instance.
func (in *Instance) framesAt(k int) int {
	if in.step {
		return k + 2
	}
	return k + 1
}

// tail returns the clause and literal counts of the depth-k tail, and the
// auxiliary variables it numbers past the frames.
func (in *Instance) tail(k int) (clauses, literals, aux int) {
	bad := in.u.c.Properties()[in.u.propIdx].Bad
	constBad := bad == circuit.True || bad == circuit.False
	switch {
	case in.step && !constBad:
		latches := len(in.constNext)
		pairs := (k + 1) * k / 2 // frame pairs of the simple path
		return k + 2 + pairs*(2*latches+1), k + 2 + pairs*7*latches, pairs * latches
	case in.step || bad == circuit.False:
		return 1, 0, 0 // the empty clause
	case bad == circuit.True:
		return 0, 0, 0
	}
	return 1, 1, 0
}

// Frames returns the number of time frames the instance spans: k+1 for
// the BMC query at depth k, k+2 for the step query.
func (in *Instance) Frames() int { return in.frames }

// VarInfo classifies variable v of the instance: its time frame, and
// whether it is an auxiliary of the encoding — the step query's
// disequality helpers, numbered past the frames.
func (in *Instance) VarInfo(v lits.Var) (frame int, aux bool) {
	if int(v) > in.u.NumVars(in.frames-1) {
		return 0, true
	}
	_, frame = in.u.NodeOf(v)
	return frame, false
}

// carve appends to dst headers over the first literals of ls, one clause
// per size and each capped at its length, and returns what is left of ls.
func carve(dst []cnf.Clause, ls []lits.Lit, sizes ...int) ([]cnf.Clause, []lits.Lit) {
	for _, n := range sizes {
		dst, ls = append(dst, cnf.Clause(ls[:n:n])), ls[n:]
	}
	return dst, ls
}

// carveBody appends the headers of s's initial-value and gate clauses to
// gates and those of its transition clauses to trans.
func (in *Instance) carveBody(gates, trans []cnf.Clause, s bodySlab) (g, t []cnf.Clause) {
	ls := s.lits
	for i := 0; i < s.units; i++ {
		gates, ls = carve(gates, ls, 1)
	}
	for i := s.frames * in.u.c.NumAnds(); i > 0; i-- {
		gates, ls = carve(gates, ls, 2, 2, 3)
	}
	for i := 0; i < s.steps; i++ {
		for _, unit := range in.constNext {
			if unit {
				trans, ls = carve(trans, ls, 1)
			} else {
				trans, ls = carve(trans, ls, 2, 2)
			}
		}
	}
	return gates, trans
}

// Extend grows the instance to depth k, which must not be below the depth
// it holds, and returns its formula — the same value every time, valid
// until the next Extend.
func (in *Instance) Extend(k int) *cnf.Formula {
	frames := in.framesAt(k)
	if k < 0 || frames < in.frames {
		panic(fmt.Sprintf("unroll: cannot extend an instance of %d frames to depth %d", in.frames, k))
	}
	u, c := in.u, in.u.c
	bad := c.Properties()[u.propIdx].Bad
	constBad := bad == circuit.True || bad == circuit.False
	latches := c.Latches()

	// The body's new literals: initial values, then the gates of the new
	// frames, then the transitions into them.
	slab := bodySlab{frames: frames - in.frames, steps: frames - in.frames}
	if in.frames == 0 {
		slab.steps = frames - 1
		if !in.step {
			slab.units = len(latches)
		}
	}
	body := make([]lits.Lit, 0, slab.units+slab.frames*7*c.NumAnds()+slab.steps*in.transLits)
	if slab.units > 0 {
		// I(V⁰): initial latch values.
		for _, id := range latches {
			body = append(body, lits.MkLit(u.VarFor(id, 0), !c.LatchInit(id).IsTrue()))
		}
	}
	// Gate relations (the combinational part of T, plus the property cone).
	for frame := in.frames; frame < frames; frame++ {
		for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
			if c.Kind(n) != circuit.KindAnd {
				continue
			}
			f0, f1 := c.Fanins(n)
			out, a, b := lits.PosLit(u.VarFor(n, frame)), u.LitFor(f0, frame), u.LitFor(f1, frame)
			// out <-> (a & b), as cnf.Formula.AddAnd2 spells it: a < b < out.
			body = append(body, a, out.Neg(), b, out.Neg(), a.Neg(), b.Neg(), out)
		}
	}
	// Latch transitions between consecutive frames.
	for frame := frames - 1 - slab.steps; frame < frames-1; frame++ {
		for _, id := range latches {
			next := c.LatchNext(id)
			lhs := lits.PosLit(u.VarFor(id, frame+1))
			switch next {
			case circuit.True:
				body = append(body, lhs)
			case circuit.False:
				body = append(body, lhs.Neg())
			default:
				// lhs <-> next, as cnf.Formula.AddEq spells it: rhs lies
				// in the earlier frame, so rhs < lhs.
				rhs := u.LitFor(next, frame)
				body = append(body, rhs, lhs.Neg(), rhs.Neg(), lhs)
			}
		}
	}
	slab.lits = body
	in.slabs = append(in.slabs, slab)
	in.frames = frames
	in.bodyLits += len(body)

	// The clause list: the body's headers, then room for the tail.
	tailClauses, tailLits, _ := in.tail(k)
	missing := in.slabs[len(in.slabs)-1:] // slabs the list has no headers for
	newGates := slab.units + slab.frames*3*c.NumAnds()
	newTrans := slab.steps * in.transClauses
	if need := in.bodyEnd + newGates + newTrans + tailClauses; cap(in.f.Clauses) < need {
		// Headers can be carved from the slabs again, so the list is not
		// copied but let go of before its successor is made: the two are
		// never live together.
		in.f.Clauses = nil
		in.f.Clauses = make([]cnf.Clause, 0, max(need, in.room))
		missing = in.slabs
		newGates, newTrans = newGates+in.gatesEnd, newTrans+in.bodyEnd-in.gatesEnd
		in.gatesEnd, in.bodyEnd = 0, 0
	}
	// Open the gap for the new gates between the last frame's and the
	// transitions.
	cl := in.f.Clauses[:in.bodyEnd+newGates+newTrans]
	copy(cl[in.gatesEnd+newGates:], cl[in.gatesEnd:in.bodyEnd])
	gates, trans := cl[in.gatesEnd:in.gatesEnd], cl[in.bodyEnd+newGates:in.bodyEnd+newGates]
	for _, s := range missing {
		gates, trans = in.carveBody(gates, trans, s)
	}
	in.gatesEnd += newGates
	in.bodyEnd = len(cl)

	// The tail, in a literal array of its own: the body's outlive it.
	tail := make([]lits.Lit, 0, tailLits)
	emit := func(ls ...lits.Lit) {
		n := len(tail)
		tail = append(tail, ls...)
		cl = append(cl, cnf.Clause(tail[n:len(tail):len(tail)]))
	}
	nVars := u.NumVars(frames - 1)
	switch {
	case in.step && !constBad:
		// P holds in frames 0..k and fails in frame k+1.
		for frame := 0; frame <= k; frame++ {
			emit(u.LitFor(bad, frame).Neg())
		}
		emit(u.LitFor(bad, k+1))
		// Simple path: the states of frames 0..k are pairwise distinct.
		// For each pair i<j one diff variable per latch, numbered past the
		// frames (d → latch_i ⊕ latch_j; one direction suffices), and
		// OR(diffs), whose diffs are numbered in ascending order.
		or := make([]lits.Lit, len(latches))
		for i := 0; i <= k; i++ {
			for j := i + 1; j <= k; j++ {
				for l, id := range latches {
					nVars++
					d := lits.PosLit(lits.Var(nVars))
					a, b := lits.PosLit(u.VarFor(id, i)), lits.PosLit(u.VarFor(id, j))
					emit(a, b, d.Neg())
					emit(a.Neg(), b.Neg(), d.Neg())
					or[l] = d
				}
				emit(or...)
			}
		}
	case in.step || bad == circuit.False:
		// A constant property needs no reasoning: no frame is good when
		// it is constantly violated, none is bad when it never is, and
		// either way the instance is trivially unsatisfiable.
		cl = append(cl, cnf.Clause{})
	case bad == circuit.True:
		// Constantly violated: every execution is a witness.
	default:
		// ¬P(Vᵏ): the bad signal asserted in the final frame.
		emit(u.LitFor(bad, k))
	}
	in.numLits = in.bodyLits + len(tail)
	in.f.NumVars, in.f.Clauses = nVars, cl
	return &in.f
}
