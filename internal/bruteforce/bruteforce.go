// Package bruteforce provides exhaustive-enumeration oracles: a SAT oracle
// used to validate the CDCL solver and the unsat-core extractor on small
// formulas, and explicit-state reachability used to validate whole model
// checks on small circuits. Both are deliberately simple — correctness by
// inspection — share no code with the unroller or the solver, and refuse
// inputs too large to enumerate.
package bruteforce

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// maxReachLatches and maxReachInputs bound the circuits Reach enumerates.
const (
	maxReachLatches = 20
	maxReachInputs  = 8
)

// Reach is breadth-first explicit-state reachability from the initial
// state, by circuit.Step under every input vector. It returns the smallest
// depth <= maxDepth at which property propIdx's bad signal can be asserted
// (-1 if there is none), and whether the reachable set closed — no new
// state at some depth <= maxDepth — in which case the property holds at
// every depth, however deep. Circuits with more than 20 latches or 8 inputs
// are rejected with an error.
func Reach(c *circuit.Circuit, propIdx, maxDepth int) (firstBad int, closed bool, err error) {
	nl, ni := c.NumLatches(), c.NumInputs()
	if nl > maxReachLatches || ni > maxReachInputs {
		return 0, false, fmt.Errorf("bruteforce: %d latches and %d inputs are too many to enumerate", nl, ni)
	}
	pack := func(st circuit.State) uint32 {
		var m uint32
		for i, b := range st {
			if b {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	init := c.InitialState()
	seen := map[uint32]bool{pack(init): true}
	frontier := []circuit.State{init} // the states first reached at depth
	inputs := make([]bool, ni)
	for depth := 0; depth <= maxDepth; depth++ {
		if len(frontier) == 0 {
			return -1, true, nil
		}
		var next []circuit.State
		for _, st := range frontier {
			for in := 0; in < 1<<uint(ni); in++ {
				for i := range inputs {
					inputs[i] = in>>uint(i)&1 == 1
				}
				succ, bads := c.Step(st, inputs)
				if bads[propIdx] {
					return depth, false, nil
				}
				if k := pack(succ); !seen[k] {
					seen[k] = true
					next = append(next, succ)
				}
			}
		}
		frontier = next
	}
	return -1, false, nil
}

// MaxVars bounds the formulas the oracle accepts (2^MaxVars assignments).
const MaxVars = 26

// Solve exhaustively searches for a satisfying assignment. It returns
// (true, model) for satisfiable formulas and (false, nil) for unsatisfiable
// ones. Formulas with more than MaxVars variables are rejected with an
// error.
func Solve(f *cnf.Formula) (bool, lits.Assignment, error) {
	n := f.NumVars
	if n > MaxVars {
		return false, nil, fmt.Errorf("bruteforce: %d variables exceeds limit %d", n, MaxVars)
	}
	for m := uint64(0); m < 1<<uint(n); m++ {
		a := assignmentFromMask(n, m)
		if f.Satisfied(a) {
			return true, a, nil
		}
	}
	return false, nil, nil
}

// CountModels returns the number of satisfying assignments over the
// formula's declared variables.
func CountModels(f *cnf.Formula) (uint64, error) {
	n := f.NumVars
	if n > MaxVars {
		return 0, fmt.Errorf("bruteforce: %d variables exceeds limit %d", n, MaxVars)
	}
	var count uint64
	for m := uint64(0); m < 1<<uint(n); m++ {
		if f.Satisfied(assignmentFromMask(n, m)) {
			count++
		}
	}
	return count, nil
}

func assignmentFromMask(n int, m uint64) lits.Assignment {
	a := lits.NewAssignment(n)
	for i := 0; i < n; i++ {
		if m&(1<<uint(i)) != 0 {
			a.Set(lits.Var(i+1), lits.True)
		} else {
			a.Set(lits.Var(i+1), lits.False)
		}
	}
	return a
}
