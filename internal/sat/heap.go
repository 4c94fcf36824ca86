package sat

import "repro/internal/lits"

// varHeap is an indexed binary max-heap over variables, one entry each,
// ordered by the solver's decision comparator better; pickBranch picks the
// polarity (the higher cha_score, positive on a tie).
// Each variable's position is tracked, so membership tests are O(1) and a
// raised key is sifted up in O(log n).
//
// The comparator consults mutable solver state (scores, guidance mode), and
// every change to it restores the heap order at once. The periodic VSIDS
// rescore, the dynamic guidance switch, SetGuidance and the re-arming of
// guidance at a SolveAssuming change keys wholesale and call rebuild().
// install (AddClause, ImportClause) only raises cha_score keys, one
// occurrence at a time, and sifts each raised variable up. Between those
// points no key moves, so the top of the heap, once assigned variables are
// skipped, holds the best unassigned literal (TestDecisionIsHeapArgmax).
type varHeap struct {
	s    *Solver
	heap []lits.Var
	pos  []int32 // indexed by variable; -1 when absent
}

// reset makes h the heap of solver s holding variables 1..nVars, in index
// order and in the arrays it already has where they are large enough (and
// in arrays sized for s's Grow hint where they are not): Load rebuilds it
// once the scores it orders by are seeded.
func (h *varHeap) reset(s *Solver, nVars int) {
	h.s = s
	h.heap = fit(&h.heap, nVars, s.hint.vars)[:0]
	h.pos = fit(&h.pos, nVars+1, s.hint.vars+1)
	h.pos[0] = -1 // no variable 0
	for v := lits.Var(1); int(v) <= nVars; v++ {
		h.pos[v] = int32(len(h.heap))
		h.heap = append(h.heap, v)
	}
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

// insert adds v if absent.
func (h *varHeap) insert(v lits.Var) {
	if h.pos[v] < 0 {
		h.heap = append(h.heap, v)
		h.up(len(h.heap) - 1)
	}
}

// popMax removes and returns the best variable. Callers must check empty()
// first.
//
// It sifts bottom-up (Floyd): the hole the top leaves goes down to a leaf
// along the better child, one comparison a level, and the last entry, which
// almost always belongs near the bottom, is dropped into it and sifted up.
// Sifting the last entry down from the root would compare twice a level, to
// take it nearly all the way down again. Either way the heap holds the same
// variables in heap order, and the next pop is the argmax of the same set.
func (h *varHeap) popMax() lits.Var {
	top := h.heap[0]
	h.pos[top] = -1
	last := len(h.heap) - 1
	v := h.heap[last]
	h.heap = h.heap[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if right := child + 1; right < last && h.s.better(h.heap[right], h.heap[child]) {
			child = right
		}
		h.heap[i] = h.heap[child]
		h.pos[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.up(i) // sets v's position
	return top
}

// grow extends the position index to cover variables 1..nVars (incremental
// variable addition); new variables are absent until inserted. Where either
// array has to move and a hint of that many variables holds nVars, it moves
// to the hint's size.
func (h *varHeap) grow(nVars, hint int) {
	h.heap = room(h.heap, nVars, hint)
	h.pos = extend(h.pos, nVars+1, hint+1, -1)
}

// rebuild re-establishes the heap property after a bulk comparator change
// (see varHeap). O(n).
func (h *varHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.s.better(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.s.better(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.s.better(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i]] = int32(i)
		i = best
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
