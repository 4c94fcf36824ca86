package racer

// A Source feeds a Pool one query sequence: the per-depth clause deltas of
// a correlated SAT instance family, the assumption each depth is solved
// under, and the variable geometry the ordering strategies need.
// *unroll.Delta is the shipped source, from Unroller.Delta (the BMC
// sequence — also the base case of k-induction) or Unroller.StepDelta (the
// induction step sequence); anything with activation-guarded per-depth
// deltas can slot in.

import (
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/unroll"
)

// Source is the query sequence a Pool races across depths.
type Source interface {
	// Frame returns the clauses new at depth k. The pool asks for depth k
	// at most once, when the first racer loads it in depth k's race, and
	// for an older depth whenever a racer that starts late has to load it —
	// possibly from several race goroutines at once: the result must depend
	// on k alone.
	Frame(k int) *cnf.Formula
	// ActLit returns the activation literal assumed when solving depth k.
	ActLit(k int) lits.Lit
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

// DeltaSource returns d as a pool source: *unroll.Delta is one already.
// Kept for benchmark/driver.go; the benchmark PR deletes it.
func DeltaSource(d *unroll.Delta) Source { return d }

// originOf returns the sequence an unroll.Delta source unrolls, nil for any
// other source: a pool over one races in process only.
func originOf(src Source) *portfolio.Origin {
	if d, ok := src.(*unroll.Delta); ok {
		return &portfolio.Origin{Unroller: d.Unroller(), Step: d.Step()}
	}
	return nil
}
