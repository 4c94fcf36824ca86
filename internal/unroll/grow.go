package unroll

import "repro/internal/circuit"

// maxSizedInstance bounds the instances GrowthDepth sizes storage for,
// counted as variables plus clauses plus literals: no solver could load a
// larger one (its clause arena addresses 2^32 words), and the bound keeps
// the sizes it computes far from overflowing.
const maxSizedInstance = 1 << 32

// GrowthDepth is the one growth rule of both solver lifetimes: when depth k
// outgrows the storage a check sized for an earlier depth, it returns the
// depth to size that storage for. size(t) is the depth-t instance's size
// (variables, clauses and literals together — Instance.Size for a scratch
// check, Delta.Size or StepDelta.Size for a persistent one) and must not
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
