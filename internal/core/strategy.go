package core

import (
	"slices"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

// Strategy selects how the refined ordering is applied to a SAT instance
// (§3.3 of the paper).
type Strategy int

// Ordering strategies.
const (
	// OrderVSIDS is the unmodified solver heuristic — the paper's "BMC"
	// baseline column.
	OrderVSIDS Strategy = iota
	// OrderStatic sorts decisions primarily by bmc_score with cha_score as
	// tiebreaker, for the entire solve.
	OrderStatic
	// OrderDynamic starts like OrderStatic but reverts permanently to pure
	// VSIDS once the number of decisions exceeds 1/64 of the number of
	// original literals — the sign that the instance is difficult and the
	// core-based estimate is likely stale.
	OrderDynamic
)

// OrderTimeAxis is the Shtrichman-style frame ordering (earliest frames
// first), the related-work comparator discussed in the paper's
// introduction. Its guidance scores come from the instance's Layout rather
// than from the score board; the value lives at an offset so Strategy stays
// a single field across packages (and so the portfolio engine can list it
// in a StrategySet).
const OrderTimeAxis Strategy = 100

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case OrderVSIDS:
		return "vsids"
	case OrderStatic:
		return "static"
	case OrderDynamic:
		return "dynamic"
	case OrderTimeAxis:
		return "timeaxis"
	default:
		return "unknown"
	}
}

// ParseStrategy converts a CLI string into a Strategy.
func ParseStrategy(s string) (Strategy, bool) {
	switch s {
	case "vsids", "bmc", "baseline":
		return OrderVSIDS, true
	case "static":
		return OrderStatic, true
	case "dynamic":
		return OrderDynamic, true
	case "timeaxis":
		return OrderTimeAxis, true
	default:
		return OrderVSIDS, false
	}
}

// SwitchDivisor is the denominator of the dynamic strategy's decision
// threshold: the solve reverts to VSIDS after #original_literals /
// SwitchDivisor decisions (paper §3.3 uses 64).
const SwitchDivisor = 64

// Layout is what the ordering rule reads of an instance besides its
// literal count: its variables, the time frames it spans, and per variable
// its frame and whether it is an auxiliary of the encoding (an activation
// guard, a disequality helper), which the time-axis ordering leaves
// unscored. Only the time-axis ordering calls VarInfo.
type Layout struct {
	NumVars int
	Frames  int
	VarInfo func(v lits.Var) (frame int, aux bool)
}

// Guidance is the one rule that maps an ordering strategy to solver
// guidance, for fresh and persistent solvers alike: the guidance scores
// (sat.Options.Guidance, sat.Solver.SetGuidance) and the dynamic switch
// threshold for an instance of the given layout and literal count.
//
//   - OrderVSIDS: no guidance — the solver's own heuristic.
//   - OrderStatic: the board's bmc_scores, never switched off.
//   - OrderDynamic: the board's bmc_scores until numLits/divisor decisions
//     (at least one) have been made; divisor <= 0 never switches.
//   - OrderTimeAxis: frame f of the layout scores Frames−f, auxiliaries 0.
//
// A nil board — a sequence whose cores rank nothing — gives static and
// dynamic no guidance either, as it gives vsids.
//
// The scores are written over buf's array where that is large enough — a
// caller that asks at every depth and is done with the last answer passes
// it back — and into a new one of exactly the size otherwise.
func (s Strategy) Guidance(board *ScoreBoard, in Layout, numLits, divisor int, buf []float64) (scores []float64, switchAfter int64) {
	if !s.Guided(board) {
		return nil, 0
	}
	switch s {
	case OrderStatic:
		return board.GuidanceInto(buf, in.NumVars), 0
	case OrderDynamic:
		if divisor > 0 {
			switchAfter = max(int64(numLits/divisor), 1)
		}
		return board.GuidanceInto(buf, in.NumVars), switchAfter
	default: // OrderTimeAxis
		g := slices.Grow(buf[:0], in.NumVars+1)[:in.NumVars+1]
		g[0] = 0
		for v := 1; v <= in.NumVars; v++ {
			g[v] = 0
			if frame, aux := in.VarInfo(lits.Var(v)); !aux {
				g[v] = float64(in.Frames - frame)
			}
		}
		return g, 0
	}
}

// Guided reports whether Guidance gives s scores under board: time-axis
// always, static and dynamic when there is a board.
func (s Strategy) Guided(board *ScoreBoard) bool {
	return s == OrderTimeAxis || board != nil && (s == OrderStatic || s == OrderDynamic)
}

// ConfigureWithDivisor applies Guidance for formula f to opts. A formula
// carries no frame layout, so it serves the board-fed strategies only. Kept
// for benchmark/driver.go, which builds one solver per depth by hand; the
// benchmark PR deletes it.
func (s Strategy) ConfigureWithDivisor(opts *sat.Options, board *ScoreBoard, f *cnf.Formula, divisor int) {
	opts.Guidance, opts.SwitchAfterDecisions = s.Guidance(board, Layout{NumVars: f.NumVars}, f.NumLiterals(), divisor, nil)
}
