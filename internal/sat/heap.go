package sat

import "repro/internal/lits"

// litHeap is an indexed binary max-heap over literals, ordered by the
// solver's current decision comparator (guidance score, then cha_score,
// then literal index for determinism). "Indexed" means each literal's heap
// position is tracked so membership tests and targeted removals are O(1)
// and O(log n).
//
// The comparator consults mutable solver state (scores, guidance mode), and
// every change to it restores the heap order at once. The periodic VSIDS
// rescore, the dynamic guidance switch, SetGuidance and the re-arming of
// guidance at a SolveAssuming change keys wholesale and call rebuild().
// install (AddClause, ImportClause) only raises cha_score keys, one
// occurrence at a time, and sifts each raised literal up. Between those
// points no key moves, so the top of the heap, once assigned literals are
// skipped, is the comparator's best unassigned literal
// (TestDecisionIsHeapArgmax).
type litHeap struct {
	s    *Solver
	heap []lits.Lit
	pos  []int32 // indexed by lit.Index(); -1 when absent
}

// reset makes h the heap of solver s holding every literal of variables
// 1..nVars, in index order and in the arrays it already has where they are
// large enough: Load rebuilds it once the scores it orders by are seeded.
func (h *litHeap) reset(s *Solver, nVars int) {
	h.s = s
	h.heap = fit(&h.heap, 2*nVars)[:0]
	h.pos = fit(&h.pos, 2*nVars+2)
	h.pos[0], h.pos[1] = -1, -1 // no literal has these indices
	for v := lits.Var(1); int(v) <= nVars; v++ {
		for _, l := range [2]lits.Lit{lits.PosLit(v), lits.NegLit(v)} {
			h.pos[l.Index()] = int32(len(h.heap))
			h.heap = append(h.heap, l)
		}
	}
}

func (h *litHeap) len() int    { return len(h.heap) }
func (h *litHeap) empty() bool { return len(h.heap) == 0 }
func (h *litHeap) contains(l lits.Lit) bool {
	return h.pos[l.Index()] >= 0
}

// insert adds l if absent.
func (h *litHeap) insert(l lits.Lit) {
	if h.contains(l) {
		return
	}
	h.heap = append(h.heap, l)
	h.pos[l.Index()] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

// popMax removes and returns the best literal. Callers must check empty()
// first.
func (h *litHeap) popMax() lits.Lit {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0].Index()] = 0
	h.heap = h.heap[:last]
	h.pos[top.Index()] = -1
	if last > 0 {
		h.down(0)
	}
	return top
}

// grow extends the position index to cover variables 1..nVars (incremental
// variable addition); new literals are absent until inserted.
func (h *litHeap) grow(nVars int) {
	for len(h.pos) < 2*nVars+2 {
		h.pos = append(h.pos, -1)
	}
}

// rebuild re-establishes the heap property after a bulk comparator change
// (see litHeap). O(n).
func (h *litHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *litHeap) up(i int) {
	l := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.s.better(l, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i].Index()] = int32(i)
		i = parent
	}
	h.heap[i] = l
	h.pos[l.Index()] = int32(i)
}

func (h *litHeap) down(i int) {
	l := h.heap[i]
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
		if !h.s.better(h.heap[best], l) {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i].Index()] = int32(i)
		i = best
	}
	h.heap[i] = l
	h.pos[l.Index()] = int32(i)
}
