// Package sat is the hotpath v2 corpus: a solver whose hot path leaks
// a clock through a package boundary (visible only via the obs fact)
// and builds a map under its second root, analyzeFinal.
package sat

import "hp2/internal/obs"

type Solver struct {
	log []int
}

func (s *Solver) solve() int {
	t := obs.Tick() // want `call to obs\.Tick in solve reaches time\.Now`
	n := obs.Count(3)
	s.log = append(s.log, int(t)+n)
	return n
}

func (s *Solver) analyzeFinal(v int) int {
	seen := map[int]bool{v: true} // want `map literal in analyzeFinal, reachable from the solver hot path`
	return len(seen)
}

// Report is NOT reachable from any root: identical constructs here are
// clean.
func (s *Solver) Report() int {
	seen := map[int]bool{}
	return int(obs.Tick()) + len(seen)
}
