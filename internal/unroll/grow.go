package unroll

import (
	"math"

	"repro/internal/circuit"
)

// maxSizedInstance bounds the instances GrowthDepth sizes storage for,
// counted as variables plus clauses plus literals: no formula could hold a
// larger one (its end offsets are int32), nor a solver load it (its clause
// arena addresses 2^32 words), and the bound keeps the sizes it computes
// far from overflowing.
const maxSizedInstance = math.MaxInt32

// GrowthDepth is the one growth rule of both solver lifetimes: when depth k
// outgrows the storage a check sized for an earlier depth, it returns the
// depth to size that storage for. size(t) is the depth-t instance's size
// (variables, clauses and literals together — Instance.Size for a scratch
// check, Delta.Size for a persistent one) and must not
// decrease with t.
//
// The depth is the deepest up to maxDepth whose instance fits the smallest
// of maxDepth's size, its half, its quarter, ... that holds depth k's
// instance. That is less than twice depth k's size, so no depth holds more
// than twice what it needs; and the sizes taken are maxDepth's and its
// halves, so storage moves O(log maxDepth) times over a check, allocates
// about twice maxDepth's size in all, and ends at exactly that size. A k
// past maxDepth is its own answer.
func GrowthDepth(k, maxDepth int, size func(t int) int) int {
	// deepest returns the deepest depth from k to maxDepth at which within
	// holds, given that it holds at k, or k if it holds nowhere past it.
	// Sizes only grow with the depth, and maxDepth may be far away: gallop
	// to the first depth where within fails, then bisect.
	deepest := func(within func(t int) bool) int {
		fits, over := k, -1
		for step := 1; fits < maxDepth; step *= 2 {
			t := min(k+step, maxDepth)
			if !within(t) {
				over = t
				break
			}
			fits = t
		}
		for over > fits+1 {
			if mid := fits + (over-fits)/2; within(mid) {
				fits = mid
			} else {
				over = mid
			}
		}
		return fits
	}
	limit := size(deepest(func(t int) bool { return size(t) <= maxSizedInstance }))
	for at := size(k); at > 0 && at <= limit/2; {
		limit /= 2
	}
	return deepest(func(t int) bool { return size(t) <= limit })
}

// Fits reports whether the depth-k instance whose variables, clauses and
// literals size(k) counts is within the bound GrowthDepth sizes storage
// for. It is the bound a peer's request for depth k is held to before any
// frame is encoded: size is Instance.Size or Delta.Size,
// and no size it evaluates can overflow — the depths are galloped from 1,
// so the first one past the bound is at most twice one within it.
func Fits(k int, size func(k int) (vars, clauses, literals int)) bool {
	total := func(t int) int {
		vars, clauses, literals := size(t)
		return vars + clauses + literals
	}
	if k < 0 || k > maxSizedInstance {
		return false
	}
	for t := 1; t < k; t *= 2 {
		if total(t) > maxSizedInstance {
			return false
		}
	}
	return total(k) <= maxSizedInstance
}

// body returns the clause and literal counts of the gates of a run of
// frames and the transitions between them, plus the initial values when
// init is set: what every encoding here builds before its property.
func (u *Unroller) body(frames int, init bool) (clauses, literals int) {
	ands := u.c.NumAnds()
	tc, tl := u.transition()
	if init {
		clauses, literals = u.c.NumLatches(), u.c.NumLatches()
	}
	return clauses + frames*3*ands + (frames-1)*tc, literals + frames*7*ands + (frames-1)*tl
}

// transition returns the clause and literal counts of one step of the latch
// transitions: a unit per latch whose next state is a constant, an
// equivalence's two binary clauses per other latch.
func (u *Unroller) transition() (clauses, literals int) {
	for _, id := range u.c.Latches() {
		if next := u.c.LatchNext(id); next == circuit.True || next == circuit.False {
			clauses, literals = clauses+1, literals+1
		} else {
			clauses, literals = clauses+2, literals+4
		}
	}
	return clauses, literals
}

// guard returns the clause and literal counts of one depth's guarded bad
// literal in the incremental sequences: none when the property is
// constantly violated, the unit ¬act when it never is, (bad ∨ ¬act)
// otherwise.
func (u *Unroller) guard() (clauses, literals int) {
	switch u.c.Properties()[u.propIdx].Bad {
	case circuit.True:
		return 0, 0
	case circuit.False:
		return 1, 1
	}
	return 1, 2
}
