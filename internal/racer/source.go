package racer

// A Source feeds a Pool one query sequence: the per-depth clause deltas of
// a correlated SAT instance family, the assumption each depth is solved
// under, and the variable geometry the ordering strategies need. The two
// shipped sources wrap unroll.Delta (the BMC base sequence — also the
// base case of k-induction) and unroll.StepDelta (the induction step
// sequence); anything with activation-guarded per-depth deltas can slot
// in.

import (
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/unroll"
)

// Source is the query sequence a Pool races across depths.
type Source interface {
	// Frame returns the clauses new at depth k. The pool asks for each
	// depth once, in order from 0, and again for an older depth whenever a
	// racer that starts late has to load it — possibly from several race
	// goroutines at once: the result must depend on k alone.
	Frame(k int) *cnf.Formula
	// Assumption returns the activation literal assumed when solving
	// depth k.
	Assumption(k int) lits.Lit
	// NumVars returns the variable count once frames 0..k are added.
	NumVars(k int) int
	// Size returns the variable, clause and literal counts of frames
	// 0..k taken together, exactly, without building them: what the pool
	// sizes its solvers ahead by.
	Size(k int) (vars, clauses, literals int)
	// Frames returns the number of time frames the depth-k instance spans
	// (the time-axis guidance scores frame f as Frames(k)−f).
	Frames(k int) int
	// VarInfo classifies variable v: its time frame, and whether it is an
	// auxiliary of the encoding (activation guard, disequality helper) —
	// auxiliaries are unscored by the time-axis guidance and excluded
	// from unsat-core variable sets (the paper's bmc_score ranks circuit
	// variables only).
	VarInfo(v lits.Var) (frame int, aux bool)
}

// deltaSource adapts the incremental BMC unrolling.
type deltaSource struct{ d *unroll.Delta }

// DeltaSource wraps unroll.Delta as a pool source (the BMC depth loop and
// the k-induction base-case sequence).
func DeltaSource(d *unroll.Delta) Source { return deltaSource{d} }

func (s deltaSource) Frame(k int) *cnf.Formula   { return s.d.Frame(k) }
func (s deltaSource) Assumption(k int) lits.Lit  { return s.d.ActLit(k) }
func (s deltaSource) NumVars(k int) int          { return s.d.NumVars(k) }
func (s deltaSource) Size(k int) (int, int, int) { return s.d.Size(k) }
func (s deltaSource) Frames(k int) int           { return k + 1 }
func (s deltaSource) VarInfo(v lits.Var) (int, bool) {
	_, frame, isAct := s.d.NodeOf(v)
	return frame, isAct
}

// stepSource adapts the incremental k-induction step sequence.
type stepSource struct{ sd *unroll.StepDelta }

// StepSource wraps unroll.StepDelta as a pool source (the k-induction
// step-case sequence).
func StepSource(sd *unroll.StepDelta) Source { return stepSource{sd} }

func (s stepSource) Frame(k int) *cnf.Formula       { return s.sd.Frame(k) }
func (s stepSource) Assumption(k int) lits.Lit      { return s.sd.ActLit(k) }
func (s stepSource) NumVars(k int) int              { return s.sd.NumVars(k) }
func (s stepSource) Size(k int) (int, int, int)     { return s.sd.Size(k) }
func (s stepSource) Frames(k int) int               { return s.sd.Frames(k) }
func (s stepSource) VarInfo(v lits.Var) (int, bool) { return s.sd.VarInfo(v) }
