package sat

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// Compactions reports how often the solver has compacted its arena; the
// external tests (which may import internal/core) assert that it happened.
func (s *Solver) Compactions() int { return s.compactions }

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
// rescores every 3 conflicts and Luby restarts of unit 4. FuzzSolverOps
// searches with it.
func Churning(o Options) Options {
	tu := defaultTuning
	tu.minLearnts, tu.maxLearntFrac, tu.maxLearntInc = 0, 0, 1
	tu.garbageDen = 1 << 30
	tu.rescoreInterval, tu.restartFirst = 3, 4
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
