package sat

import "repro/internal/cnf"

// Compactions reports how often the solver has compacted its arena; the
// external tests (which may import internal/core) assert that it happened.
func (s *Solver) Compactions() int { return s.compactions }

// ArenaPages reports how many slots the arena's page table holds.
func (s *Solver) ArenaPages() int { return len(s.ca.pages) }

// RandomFormula is the property tests' generator, for the external tests.
func RandomFormula(seed uint64, nVars, nClauses, maxLen int) *cnf.Formula {
	return randomFormula(seed, nVars, nClauses, maxLen)
}
