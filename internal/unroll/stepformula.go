package unroll

import "repro/internal/cnf"

// StepFormula builds the induction step instance of depth k over the
// unroller's circuit — a new Instance of the step query grown to k in one
// extension: frames 0..k+1 connected by the transition relation with NO
// initial-state constraint, the property's bad signal false in frames 0..k
// and asserted in frame k+1, and pairwise state disequality between all
// frames (the simple-path constraint that makes k-induction complete on
// finite systems).
//
// Auxiliary variables for the disequality encoding are allocated past the
// unroller's frame-stable range, so bmc_score transfer on circuit
// variables is unaffected.
func StepFormula(u *Unroller, k int) *cnf.Formula {
	return u.StepInstance().Extend(k)
}
