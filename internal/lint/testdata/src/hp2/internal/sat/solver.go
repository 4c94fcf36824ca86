// Package sat is the hotpath v2 corpus: a solver whose hot path leaks
// a clock through a package boundary (visible only via the obs fact)
// and trips every heap-allocation check, from both roots.
package sat

import "hp2/internal/obs"

type Solver struct {
	log  []int
	hist []int
}

type item struct{ id int }

type sink interface{ put(n int) }

type dev struct{}

func (dev) put(n int) {}

func use(s sink) {}

func (s *Solver) solve() int {
	t := obs.Tick() // want `call to obs\.Tick in solve reaches time\.Now`
	n := obs.Count(3)
	s.grow(int(t) + n)
	s.note(n)
	return s.box(n)
}

func (s *Solver) note(c int) {
	it := &item{id: c} // want `composite literal escapes to the heap via &`
	s.log = append(s.log, it.id)
}

func (s *Solver) analyzeFinal(v int) []int {
	return []int{v} // want `slice/map literal allocated per call in return from analyzeFinal`
}

func (s *Solver) grow(n int) {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want `append grows zero-capacity slice out in a loop`
	}
	s.log = out

	// Preallocated with capacity: growth is bounded, no finding.
	buf := make([]int, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	s.hist = buf
}

func (s *Solver) box(n int) int {
	use(dev{})                   // want `passing concrete .*dev to interface parameter of use`
	f := func() int { return n } // want `closure capturing n allocates in box`
	return f()
}

// Report is NOT reachable from any root: identical constructs here are
// clean.
func (s *Solver) Report() []int {
	var out []int
	for i := 0; i < 4; i++ {
		out = append(out, i)
	}
	return out
}
