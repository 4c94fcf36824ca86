package core

import (
	"slices"
	"sync"

	"repro/internal/lits"
)

// ScoreMode selects how the ScoreBoard folds successive unsat cores into
// bmc_score. WeightedSum is the paper's rule; the others are ablations of
// the two design arguments given in §3.2 (recency weighting, and not
// trusting any single core).
type ScoreMode int

// Score accumulation modes.
const (
	// WeightedSum is the paper's bmc_score: score(x) += j when x appears
	// in the unsat core of the depth-j instance. Recent cores dominate,
	// but all cores contribute.
	WeightedSum ScoreMode = iota
	// UnweightedSum drops the recency weight: score(x) += 1.
	UnweightedSum
	// LastCoreOnly relies exclusively on the most recent core:
	// score(x) = 1 if x in the last core else 0.
	LastCoreOnly
	// ExpDecay halves all scores before adding the new core:
	// score = score/2, then score(x) += j for core members.
	ExpDecay
)

// String implements fmt.Stringer.
func (m ScoreMode) String() string {
	switch m {
	case WeightedSum:
		return "weighted-sum"
	case UnweightedSum:
		return "unweighted-sum"
	case LastCoreOnly:
		return "last-core-only"
	case ExpDecay:
		return "exp-decay"
	default:
		return "unknown"
	}
}

// ScoreBoard holds the varRank list of Fig. 5: the per-variable bmc_score
// accumulated over all previous unsatisfiable BMC instances. Variable
// identity is the CNF variable number, which the unroller keeps stable
// across unrolling depths, so scores learned at depth j apply directly at
// depth j+1.
//
// A ScoreBoard is safe for concurrent use: the portfolio engine
// (internal/portfolio, driven by internal/engine) shares one board across
// racing solver goroutines, folding each depth's winning core in while the next
// depth's attempts may already be reading guidance snapshots. All methods
// take the internal mutex; Guidance returns an independent copy, so
// solvers never observe a board mid-update.
type ScoreBoard struct {
	mu    sync.Mutex
	mode  ScoreMode
	score []float64 // indexed by variable; grows as deeper instances add variables
	cores int       // number of cores folded in
	// last is the variable list of the core folded in last, from the
	// instance numbered lastJ; Overlap compares the next core with it.
	last  []lits.Var
	lastJ int
}

// NewScoreBoard creates an empty score board with the given mode.
func NewScoreBoard(mode ScoreMode) *ScoreBoard {
	return &ScoreBoard{mode: mode}
}

// NumCores returns how many unsat cores have been folded in.
func (b *ScoreBoard) NumCores() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cores
}

// Update folds the variables of the depth-k unsat core into the scores
// (update_ranking in Fig. 5).
func (b *ScoreBoard) Update(coreVars []lits.Var, k int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	maxV := 0
	for _, v := range coreVars {
		if int(v) > maxV {
			maxV = int(v)
		}
	}
	b.grow(maxV)

	switch b.mode {
	case LastCoreOnly:
		for i := range b.score {
			b.score[i] = 0
		}
		for _, v := range coreVars {
			b.score[v] = 1
		}
	case ExpDecay:
		for i := range b.score {
			b.score[i] /= 2
		}
		for _, v := range coreVars {
			b.score[v] += float64(k)
		}
	case UnweightedSum:
		for _, v := range coreVars {
			b.score[v]++
		}
	default: // WeightedSum
		for _, v := range coreVars {
			b.score[v] += float64(k)
		}
	}
	b.cores++
	b.last, b.lastJ = append(b.last[:0], coreVars...), k
}

// Overlap returns the Jaccard overlap |A∩B| / |A∪B| between the variables
// of the depth-j instance's unsat core and those of the core folded in last
// — the locality of consecutive cores that the paper's ordering rests on.
// Both lists are sorted ascending, as Vars returns them. ok is false unless
// the last fold was instance j−1's: at the first depth, and after a depth
// that folded no core.
func (b *ScoreBoard) Overlap(coreVars []lits.Var, j int) (overlap float64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cores == 0 || b.lastJ != j-1 {
		return 0, false
	}
	both, i := 0, 0
	for _, v := range coreVars {
		for i < len(b.last) && b.last[i] < v {
			i++
		}
		if i < len(b.last) && b.last[i] == v {
			both++
		}
	}
	union := len(coreVars) + len(b.last) - both
	if union == 0 {
		return 1, true
	}
	return float64(both) / float64(union), true
}

// Score returns the current bmc_score of variable v (0 when never seen).
func (b *ScoreBoard) Score(v lits.Var) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(v) >= len(b.score) {
		return 0
	}
	return b.score[v]
}

// Guidance returns a per-variable score slice (entry 0 unused) sized for a
// formula with nVars variables, suitable for sat.Options.Guidance. The
// returned slice is a copy; later Updates do not affect it.
func (b *ScoreBoard) Guidance(nVars int) []float64 { return b.GuidanceInto(nil, nVars) }

// GuidanceInto is Guidance written over buf's array where that is large
// enough — for a caller that asks at every depth of a check and is done
// with the last answer by then. An array that is too small is replaced by
// append's amortised rule; none at all by one of exactly the size.
func (b *ScoreBoard) GuidanceInto(buf []float64, nVars int) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := slices.Grow(buf[:0], nVars+1)[:nVars+1]
	clear(g[copy(g, b.score):])
	return g
}

// NumScored returns the number of variables with a nonzero score.
func (b *ScoreBoard) NumScored() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, s := range b.score {
		if s != 0 {
			n++
		}
	}
	return n
}

// grow extends the scores to cover maxVar. A core names a higher variable
// at nearly every depth, so where the array has to move it at least
// doubles: the scores move O(log depth) times over a check, 6 times over
// gcnt_m10_big's 40 depths (TestBoardGrowsLogarithmically). Append's rule
// adds only a quarter to a large array and moves them at most depths.
func (b *ScoreBoard) grow(maxVar int) {
	n := len(b.score)
	if maxVar < n {
		return
	}
	if cap(b.score) <= maxVar {
		b.score = slices.Grow(b.score, max(maxVar+1, 2*n)-n)
	}
	b.score = b.score[:maxVar+1]
	clear(b.score[n:])
}
