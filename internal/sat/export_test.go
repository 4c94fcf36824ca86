package sat

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// Compactions reports how often the solver has compacted its arena; the
// external tests (which may import internal/core) assert that it happened.
func (s *Solver) Compactions() int { return s.compactions }

// WatchCompactions reports how often the solver has compacted its watch
// store.
func (s *Solver) WatchCompactions() int { return s.watches.compactions }

// ArenaPages reports how many slots the arena's page table holds.
func (s *Solver) ArenaPages() int { return len(s.ca.pages) }

// LearntClauses returns copies of the live learnt clauses' literals, in the
// order the solver keeps them.
func (s *Solver) LearntClauses() []cnf.Clause {
	out := make([]cnf.Clause, 0, len(s.learnts))
	for _, c := range s.learnts {
		ls := s.ca.at(c).lits()
		cl := make(cnf.Clause, len(ls))
		for i, w := range ls {
			cl[i] = lits.Lit(w)
		}
		out = append(out, cl)
	}
	return out
}

// RandomFormula is the property tests' generator, for the external tests.
func RandomFormula(seed uint64, nVars, nClauses, maxLen int) *cnf.Formula {
	return randomFormula(seed, nVars, nClauses, maxLen)
}

// Churning returns o with a tuning under which the solver reduces its
// learnt clauses before every decision and compacts its arena whenever a
// reduction deletes anything: a learnt limit of 0 that never grows,
// rescores every 3 conflicts and Luby restarts of unit 4. The watch pages
// its lists grow into are 4 watchers long, so lists open pages, outgrow
// them and move, and the store compacts. FuzzSolverOps searches with it.
func Churning(o Options) Options {
	tu := defaultTuning
	tu.minLearnts, tu.maxLearntFrac, tu.maxLearntInc = 0, 0, 1
	tu.garbageDen = 1 << 30
	tu.rescoreInterval, tu.restartFirst = 3, 4
	tu.watchPage = 4
	o.tune = &tu
	return o
}

// CheckHeap reports the first way the decision heap fails to be the heap
// of s's unassigned variables: an entry outside 1..NumVars, a position
// index that disagrees with the array either way, an entry that ranks
// above its parent, or an unassigned variable that is not queued.
func (s *Solver) CheckHeap() error {
	h := s.heap
	for i, v := range h.heap {
		if v < 1 || int(v) > s.nVars {
			return fmt.Errorf("heap[%d] = %v, outside variables 1..%d", i, v, s.nVars)
		}
		if h.pos[v] != int32(i) {
			return fmt.Errorf("heap[%d] = %v, whose position reads %d", i, v, h.pos[v])
		}
		if parent := (i - 1) / 2; i > 0 && s.better(v, h.heap[parent]) {
			return fmt.Errorf("heap[%d] = %v ranks above its parent %v", i, v, h.heap[parent])
		}
	}
	for v := lits.Var(1); int(v) <= s.nVars; v++ {
		pos := h.pos[v]
		if pos >= 0 && (int(pos) >= len(h.heap) || h.heap[pos] != v) {
			return fmt.Errorf("%v is queued at %d, which holds something else", v, pos)
		}
		if pos < 0 && s.vals[lits.PosLit(v).Index()] == 0 {
			return fmt.Errorf("unassigned %v is not queued", v)
		}
	}
	return nil
}

// CheckWatches reports the first way the watch store fails its invariants:
// a clause that is not in the list of each of its first two literals'
// negations exactly once (a live clause of two or more literals must be,
// unless the solver is Unsat, which AddClause may have found without
// attaching it; nothing else may be), a list with more watchers than room,
// a list that runs off its page or past the room handed out, two lists
// that overlap, or a garbage count that is not the room handed out minus
// every list's room.
func (s *Solver) CheckWatches() error {
	st := &s.watches
	found := make(map[cref][2]int)
	type span struct{ lo, hi, list int }
	byPage := make(map[int][]span)
	room := 0
	for i, l := range st.lists {
		if l.n > l.cap {
			return fmt.Errorf("list %d holds %d watchers in room for %d", i, l.n, l.cap)
		}
		if l.cap == 0 {
			continue
		}
		room += int(l.cap)
		p, at := int(l.off>>watchShift), int(l.off&watchMask)
		if p >= st.fill || at+int(l.cap) > len(st.pages[p]) || p == st.fill-1 && at+int(l.cap) > st.top {
			return fmt.Errorf("list %d at page %d index %d, room %d, runs off its page (%d pages in use, the last to %d)",
				i, p, at, l.cap, st.fill, st.top)
		}
		byPage[p] = append(byPage[p], span{at, at + int(l.cap), i})
		for _, w := range st.list(i) {
			k := s.ca.at(w.c)
			if k.deleted() || k.size() < 2 {
				return fmt.Errorf("list %d watches %v clause %d of %d literals", i, map[bool]string{true: "deleted", false: "live"}[k.deleted()], k.id(), k.size())
			}
			ls := k.lits()
			switch i {
			case lits.Lit(ls[0]).Neg().Index():
				f := found[w.c]
				f[0]++
				found[w.c] = f
			case lits.Lit(ls[1]).Neg().Index():
				f := found[w.c]
				f[1]++
				found[w.c] = f
			default:
				return fmt.Errorf("list %d watches clause %d, whose first literals are %v and %v", i, k.id(), lits.Lit(ls[0]), lits.Lit(ls[1]))
			}
		}
	}
	for p, spans := range byPage {
		slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
		for k := 1; k < len(spans); k++ {
			if spans[k].lo < spans[k-1].hi {
				return fmt.Errorf("lists %d and %d overlap in page %d", spans[k-1].list, spans[k].list, p)
			}
		}
	}
	held := st.top
	for p := 0; p < st.fill-1; p++ {
		held += len(st.pages[p])
	}
	if held != st.held || st.garbage != held-room {
		return fmt.Errorf("the store has handed out %d watchers' room (it counts %d), the lists have %d, and it counts %d garbage",
			held, st.held, room, st.garbage)
	}
	for c, k := range s.ca.clauses {
		if k.deleted() || k.size() < 2 {
			continue
		}
		switch f := found[c]; {
		case f == [2]int{} && s.status == Unsat:
		case f != [2]int{1, 1}:
			return fmt.Errorf("clause %d %v is in its first literals' lists %d and %d times", k.id(), k.lits(), f[0], f[1])
		}
	}
	return nil
}
