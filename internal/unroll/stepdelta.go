package unroll

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// StepDelta is the incremental counterpart of the k-induction step
// instance (induction.StepFormula): instead of rebuilding the whole
// depth-k step query, Frame(k) returns only the clauses *new* at depth k,
// so a live solver can accumulate the step sequence across a whole
// k-induction run exactly as Delta accumulates the base (BMC) sequence.
//
// The depth-k step query asserts
//
//	⋀_{0≤i≤k+1} Gates(Vⁱ) ∧ ⋀_{0≤i≤k} T(Vⁱ, Vⁱ⁺¹)     (no initial constraint)
//	∧ ⋀_{0≤i≤k} P(Vⁱ) ∧ ¬P(Vᵏ⁺¹)
//	∧ ⋀_{0≤i<j≤k} state(Vⁱ) ≠ state(Vʲ)               (simple path)
//
// Almost all of it is monotone in k: the gate relations, transitions, the
// "good" frames P(Vⁱ), and the pairwise disequalities of depth k are all
// still asserted at depth k+1 (whose simple path spans a superset of
// pairs), so those clauses are added once and never retracted. The one
// per-depth piece is ¬P(Vᵏ⁺¹), which depth k+1 must replace with P(Vᵏ⁺¹):
// as in Delta, each depth's bad literal is guarded by a fresh activation
// literal actₖ,
//
//	(¬actₖ ∨ badₖ₊₁),
//
// solved under the assumption actₖ and permanently retired by the unit
// ¬actₖ in Frame(k+1) — where the new good unit ¬badₖ₊₁ then takes over.
//
// Variable numbering is block-wise dense and frame-stable (the depth-k
// variable set is a prefix of the depth-(k+1) set), so unsat-core scores
// transfer across step instances exactly as Delta's do for base
// instances. Depth k's block appends, in order: the new frame's node
// variables, the depth's activation variable, and the simple-path
// auxiliary (per-latch disequality) variables of the k new frame pairs.
type StepDelta struct {
	u       *Unroller
	stride  int // node variables per frame (no activation slot here)
	nl      int // latches, i.e. aux variables per frame pair
	metrics *Metrics
}

// StepDelta returns the incremental view of the unroller's induction step
// sequence.
func (u *Unroller) StepDelta() *StepDelta {
	return &StepDelta{u: u, stride: u.stride, nl: u.c.NumLatches()}
}

// Unroller returns the underlying whole-instance unroller.
func (sd *StepDelta) Unroller() *Unroller { return sd.u }

// blockStart returns the first CNF variable of the depth-k block. Depth
// 0's block holds frames 0 and 1 plus act₀ (size 2·stride+1); the depth-k
// block (k ≥ 1) holds frame k+1, actₖ, and k·nl disequality auxiliaries
// (size stride+1+k·nl).
func (sd *StepDelta) blockStart(k int) int {
	if k <= 0 {
		return 1
	}
	s, l := sd.stride, sd.nl
	return 2 + 2*s + (k-1)*(s+1) + l*(k-1)*k/2
}

// NumVars returns the variable count once frames of depths 0..k have been
// added.
func (sd *StepDelta) NumVars(k int) int { return sd.blockStart(k+1) - 1 }

// Frames returns the number of time frames the depth-k step instance
// spans (frames 0..k+1).
func (sd *StepDelta) Frames(k int) int { return k + 2 }

// Size returns the variable, clause and literal counts of Frame(0..k)
// taken together, without building them: the closed form of Frame, which
// must follow it exactly. Size(-1) is all zero. The simple path makes it
// quadratic in k.
func (sd *StepDelta) Size(k int) (vars, clauses, literals int) {
	if k < 0 {
		return 0, 0, 0
	}
	ands := sd.u.c.NumAnds()
	tc, tl := sd.u.transition()
	gc, gl := sd.u.guard()
	// good(frame): P constantly violated asserts the empty clause, P never
	// violated asserts nothing, any other P the unit ¬bad.
	goodC, goodL := 1, 1
	switch sd.u.c.Properties()[sd.u.propIdx].Bad {
	case circuit.True:
		goodL = 0
	case circuit.False:
		goodC, goodL = 0, 0
	}
	pairs := k * (k + 1) / 2 // frame pairs of the simple path
	// Per depth the gates of its new frame (two at depth 0), one step of
	// transitions, a good frame and a guard; per depth past 0 the unit
	// retiring the last guard; per frame pair the disequality clauses.
	return sd.NumVars(k),
		(k+2)*3*ands + (k+1)*(tc+goodC+gc) + k + pairs*(2*sd.nl+1),
		(k+2)*7*ands + (k+1)*(tl+goodL+gl) + k + pairs*7*sd.nl
}

// VarFor returns the CNF variable of node n in frame f under the step
// delta numbering. The constant node has no variable.
func (sd *StepDelta) VarFor(n circuit.NodeID, frame int) lits.Var {
	if n == circuit.ConstNode {
		panic("unroll: the constant node has no CNF variable")
	}
	base := 1 + frame*sd.stride // frames 0 and 1 live in block 0
	if frame >= 2 {
		base = sd.blockStart(frame - 1)
	}
	return lits.Var(base + int(n) - 1)
}

// LitFor returns the CNF literal of signal s in frame f; it panics on
// constant signals (callers must fold those).
func (sd *StepDelta) LitFor(s circuit.Signal, frame int) lits.Lit {
	return lits.MkLit(sd.VarFor(s.Node(), frame), s.IsNeg())
}

// ActVar returns the activation variable guarding the depth-k bad
// literal.
func (sd *StepDelta) ActVar(k int) lits.Var {
	if k == 0 {
		return lits.Var(1 + 2*sd.stride)
	}
	return lits.Var(sd.blockStart(k) + sd.stride)
}

// ActLit returns the positive activation literal assumed when solving
// depth k.
func (sd *StepDelta) ActLit(k int) lits.Lit { return lits.PosLit(sd.ActVar(k)) }

// auxVar returns the disequality auxiliary of latch index l in the frame
// pair (i, k) of the depth-k block (k ≥ 1, 0 ≤ i < k).
func (sd *StepDelta) auxVar(k, i, l int) lits.Var {
	return lits.Var(sd.blockStart(k) + sd.stride + 1 + i*sd.nl + l)
}

// VarInfo classifies CNF variable v: frame is the time frame the variable
// belongs to, and aux marks the non-circuit variables of the encoding —
// activation guards and simple-path disequality auxiliaries — which
// time-axis guidance leaves unscored and core extraction skips. For an
// activation variable, frame is the frame whose bad literal it guards;
// for a disequality auxiliary, the later frame of its pair.
func (sd *StepDelta) VarInfo(v lits.Var) (frame int, aux bool) {
	idx := int(v) - 1
	if idx < 2*sd.stride+1 { // block 0: frames 0, 1, act₀
		switch {
		case idx < sd.stride:
			return 0, false
		case idx < 2*sd.stride:
			return 1, false
		default:
			return 1, true // act₀ guards the frame-1 bad literal
		}
	}
	// Binary search for the depth-k block containing v (k ≥ 1).
	lo, hi := 1, 2
	for sd.blockStart(hi+1) <= int(v) {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if sd.blockStart(mid) <= int(v) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	k := lo
	off := int(v) - sd.blockStart(k)
	switch {
	case off < sd.stride:
		return k + 1, false
	case off == sd.stride:
		return k + 1, true // actₖ guards the frame-(k+1) bad literal
	default:
		return k, true // disequality aux of a pair (i, k)
	}
}

// Frame builds the clauses new at depth k: the new frame's gate
// relations, the transition into it, the previous depth's guard
// retirement and good unit, the guarded depth-k bad literal, and the
// simple-path disequalities between the newly constrained frame k and all
// earlier frames. The union of Frame(0..k), with actₖ assumed, is
// equisatisfiable with induction.StepFormula(u, k).
func (sd *StepDelta) Frame(k int) *cnf.Formula {
	if k < 0 {
		panic(fmt.Sprintf("unroll: negative depth %d", k))
	}
	var buildStart time.Time
	if sd.metrics != nil {
		buildStart = time.Now()
	}
	c := sd.u.c
	_, clauses, literals := sd.Size(k - 1)
	_, clausesTo, literalsTo := sd.Size(k)
	f := &cnf.Formula{
		NumVars: sd.NumVars(k),
		Lits:    make([]lits.Lit, 0, literalsTo-literals),
		Ends:    make([]int32, 0, clausesTo-clauses),
	}
	bad := c.Properties()[sd.u.propIdx].Bad

	gates := func(frame int) {
		for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
			if c.Kind(n) != circuit.KindAnd {
				continue
			}
			f0, f1 := c.Fanins(n)
			out := lits.PosLit(sd.VarFor(n, frame))
			f.AddAnd2(out, sd.LitFor(f0, frame), sd.LitFor(f1, frame))
		}
	}
	transition := func(frame int) { // T(V^frame, V^{frame+1})
		for _, id := range c.Latches() {
			next := c.LatchNext(id)
			lhs := lits.PosLit(sd.VarFor(id, frame+1))
			switch next {
			case circuit.True:
				f.AddUnit(lhs)
			case circuit.False:
				f.AddUnit(lhs.Neg())
			default:
				f.AddEq(lhs, sd.LitFor(next, frame))
			}
		}
	}
	// good(frame): P holds, i.e. the bad signal is false.
	good := func(frame int) {
		switch bad {
		case circuit.True:
			// P constantly violated: no good frame exists, exactly as
			// StepFormula's empty clause makes every step instance unsat.
			f.AddClause(cnf.Clause{})
		case circuit.False:
			// P trivially holds; nothing to assert.
		default:
			f.AddUnit(sd.LitFor(bad, frame).Neg())
		}
	}

	if k == 0 {
		gates(0)
		gates(1)
		transition(0)
		good(0)
	} else {
		gates(k + 1)
		transition(k)
		// Retire the previous depth's guard for good; its frame is now a
		// good frame of every later instance.
		f.AddUnit(sd.ActLit(k - 1).Neg())
		good(k)

		// Simple path: the newly constrained frame k must differ from every
		// earlier frame. For each pair (i, k) one diff variable per latch
		// (d → latch_i ⊕ latch_k) and OR(diffs) — permanent clauses, since
		// every later depth's simple path spans these pairs too.
		latches := c.Latches()
		or := make(cnf.Clause, 0, len(latches))
		for i := 0; i < k; i++ {
			or = or[:0]
			for l, id := range latches {
				d := lits.PosLit(sd.auxVar(k, i, l))
				a := lits.PosLit(sd.VarFor(id, i))
				b := lits.PosLit(sd.VarFor(id, k))
				f.AddClause(cnf.Clause{a, b, d.Neg()})
				f.AddClause(cnf.Clause{a.Neg(), b.Neg(), d.Neg()})
				or = append(or, d)
			}
			f.AddClause(or)
		}
	}

	// actₖ → ¬P(Vᵏ⁺¹): the guarded bad literal of this depth.
	switch bad {
	case circuit.True:
		// Bad constantly asserted: the guard constrains nothing (the good
		// frames already made the instance unsat above).
	case circuit.False:
		// Bad can never be asserted: assuming actₖ must fail, exactly as
		// StepFormula's empty clause.
		f.AddUnit(sd.ActLit(k).Neg())
	default:
		// Normalised as every clause here: actₖ follows frame k+1's nodes.
		f.AddClause(cnf.Clause{sd.LitFor(bad, k+1), sd.ActLit(k).Neg()})
	}
	sd.metrics.observe(buildStart, f)
	return f
}
