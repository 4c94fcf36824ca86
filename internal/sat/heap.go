package sat

import "repro/internal/lits"

// varHeap is an indexed binary max-heap over variables, one entry each,
// ordered by the solver's decision comparator better; pickBranch picks the
// polarity (the higher cha_score, positive on a tie).
// Each variable's position is tracked, so membership tests are O(1) and a
// raised key is sifted up in O(log n).
//
// The comparator consults mutable solver state (scores, guidance mode), and
// every change to it restores the heap order at once. Load builds the heap
// once the scores it orders by are seeded (build). The periodic VSIDS
// rescore, the dynamic guidance switch, SetGuidance and the re-arming of
// guidance at a SolveAssuming change keys wholesale and call rebuild().
// install (AddClause) only raises cha_score keys, one
// occurrence at a time, and sifts each raised variable up. Between those
// points no key moves, so the top of the heap, once assigned variables are
// skipped, holds the best unassigned literal (TestDecisionIsHeapArgmax).
type varHeap struct {
	s    *Solver
	heap []lits.Var
	pos  []int32 // indexed by variable; -1 when absent
}

// reset makes h the heap of solver s over variables 1..nVars, in the
// arrays it already has where they are large enough (and in arrays sized
// for s's Grow hint where they are not). Its entries are undefined until
// build fills them, once Load has seeded the scores they are ordered by.
func (h *varHeap) reset(s *Solver, nVars int) {
	h.s = s
	h.heap = fit(&h.heap, nVars, s.hint.vars)
	h.pos = fit(&h.pos, nVars+1, s.hint.vars+1)
	h.pos[0] = -1 // no variable 0
}

// build fills a reset heap with every variable, at load time, and reports
// whether it sorted them. The keys are integers then as a rule: a
// cha_score is an occurrence count, a board's bmc_score a sum of instance
// numbers, a time-axis score a frame count. Where every variable's cha key
// (the higher of its two cha_scores) and every guidance score is an integer
// from 0 to n, and at most half the variables are guided (guidance above
// 0), build counting-sorts: every variable by cha key, descending and in
// index order within a key, then, stably, only the guided ones by guidance
// into the front. An array sorted descending under better is a heap, and
// better is a strict total order, so every pop is the argmax of the same
// set as after rebuild: no decision can move. Any other key — ExpDecay's
// halved scores, a negative or NaN guidance score, a key above n — falls
// back to rebuild, and so does guidance on more than half the variables.
// The second sort then costs more than Floyd saves: a board guides about
// one variable in a hundred, time-axis guidance nearly all of them, and
// the two builds break even near half (gcnt_m10_big's depth 40 with
// time-axis scores kept on a random share of its variables).
//
// cnt is Load's newCount: 2n+2 zeros, which build counts in and leaves
// zero. The position index is build's scratch until the array is final.
func (h *varHeap) build(cnt []int32) (sorted bool) {
	s, n := h.s, len(h.heap)
	chaCnt, guidCnt := cnt[:n+1], cnt[n+1:2*n+2]
	maxCha, maxGuid := 0, 0 // the highest keys counted
	defer func() {
		clear(chaCnt[:maxCha+1])
		clear(guidCnt[:maxGuid+1])
	}()
	var guid []float64
	guided := 0
	if s.guidActive {
		guid = s.guid
		for v := 1; v <= n; v++ {
			if guid[v] != 0 {
				guided++
			}
		}
		if guided > n/2 {
			h.rebuildAll()
			return false
		}
	}
	// key[v] is v's cha key, complemented where v is guided.
	key := h.pos
	for v := 1; v <= n; v++ {
		c, ok := count(s.chaKey(lits.Var(v)), n)
		if !ok {
			h.rebuildAll()
			return false
		}
		chaCnt[c]++
		maxCha = max(maxCha, c)
		key[v] = int32(c)
		if guid != nil && guid[v] != 0 {
			g, ok := count(guid[v], n)
			if !ok {
				h.rebuildAll()
				return false
			}
			guidCnt[g]++
			maxGuid = max(maxGuid, g)
			key[v] = ^key[v]
		}
	}

	// Every variable by cha key, descending: chaCnt[c] becomes where the
	// next variable of key c goes. A guided variable goes in negated.
	var off int32
	for c := maxCha; c >= 0; c-- {
		off, chaCnt[c] = off+chaCnt[c], off
	}
	for v := lits.Var(1); int(v) <= n; v++ {
		c, x := key[v], v
		if c < 0 {
			c, x = ^c, -v
		}
		h.heap[chaCnt[c]] = x
		chaCnt[c]++
	}

	if guided > 0 {
		// The unguided variables move to the back, keeping their order; the
		// guided ones are listed as they are passed, last first.
		list := h.pos[:guided]
		j, w := 0, n-1
		for i := n - 1; i >= 0; i-- {
			if v := h.heap[i]; v < 0 {
				list[j] = int32(-v)
				j++
			} else {
				h.heap[w] = v
				w--
			}
		}
		off = 0
		for g := maxGuid; g >= 1; g-- {
			off, guidCnt[g] = off+guidCnt[g], off
		}
		for j := guided - 1; j >= 0; j-- {
			v := lits.Var(list[j])
			g := int(guid[v])
			h.heap[guidCnt[g]] = v
			guidCnt[g]++
		}
	}

	h.pos[0] = -1
	for i, v := range h.heap {
		h.pos[v] = int32(i)
	}
	return true
}

// count returns x as a count from 0 to n, if it is one. Whatever int(x)
// gives for NaN, an infinity or a value out of int's range, it does not
// convert back to x or lies outside 0..n.
func count(x float64, n int) (int, bool) {
	k := int(x)
	return k, float64(k) == x && uint(k) <= uint(n)
}

// rebuildAll fills a reset heap with every variable in index order and
// establishes the heap order by rebuild.
func (h *varHeap) rebuildAll() {
	for i := range h.heap {
		v := lits.Var(i + 1)
		h.heap[i] = v
		h.pos[v] = int32(i)
	}
	h.rebuild()
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
