package core

import (
	"repro/internal/cnf"
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
// introduction. Its guidance scores depend on the unrolling, so it is
// configured by internal/engine rather than by Configure; the value lives
// at an offset so Strategy stays a single field across packages (and so the
// portfolio engine can list it in a StrategySet).
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

// Configure applies the strategy to solver options for formula f, using
// the scores accumulated in board. For OrderVSIDS it leaves opts untouched.
// The divisor parameter of the dynamic threshold is SwitchDivisor; use
// ConfigureWithDivisor to ablate it.
func (s Strategy) Configure(opts *sat.Options, board *ScoreBoard, f *cnf.Formula) {
	s.ConfigureWithDivisor(opts, board, f, SwitchDivisor)
}

// ConfigureWithDivisor is Configure with an explicit switch divisor
// (dynamic strategy only; divisor <= 0 disables the switch).
func (s Strategy) ConfigureWithDivisor(opts *sat.Options, board *ScoreBoard, f *cnf.Formula, divisor int) {
	numLits := 0
	if s == OrderDynamic && divisor > 0 {
		numLits = f.NumLiterals()
	}
	opts.Guidance = nil
	s.ConfigureSized(opts, board, f.NumVars, numLits, divisor)
}

// ConfigureSized is ConfigureWithDivisor for a depth loop that configures
// a growing instance again and again: the formula is known by its variable
// and literal counts, so a caller that keeps the literal count as the
// instance grows need not have every clause walked for it, and the scores
// are written over the array of the guidance opts comes with where that is
// large enough (ScoreBoard.GuidanceInto) — the caller's last one, which it
// must be done with.
func (s Strategy) ConfigureSized(opts *sat.Options, board *ScoreBoard, numVars, numLits, divisor int) {
	switch s {
	case OrderVSIDS, OrderTimeAxis:
		// Deliberate no-ops: VSIDS is the solver's own heuristic, and
		// the time-axis ordering is encoded by the unroller's variable
		// numbering, not by solver options.
	case OrderStatic:
		opts.Guidance = board.GuidanceInto(opts.Guidance, numVars)
		opts.SwitchAfterDecisions = 0
	case OrderDynamic:
		opts.Guidance = board.GuidanceInto(opts.Guidance, numVars)
		if divisor > 0 {
			opts.SwitchAfterDecisions = int64(numLits / divisor)
			if opts.SwitchAfterDecisions < 1 {
				opts.SwitchAfterDecisions = 1
			}
		} else {
			opts.SwitchAfterDecisions = 0
		}
	}
}
