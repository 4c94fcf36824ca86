package sat

// Compactions reports how often the solver has compacted its arena; the
// external tests (which may import internal/core) assert that it happened.
func (s *Solver) Compactions() int { return s.compactions }
