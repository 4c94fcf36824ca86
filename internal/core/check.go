package core

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

// Check verifies the proof a Complete recorder holds: every learned clause
// must follow from its antecedents by reverse unit propagation (RUP), and
// the final antecedents must propagate to a conflict outright — in the
// spirit of the resolution-based checker of Zhang & Malik the paper cites.
// Leaves the recorder holds no literals for are looked up in originals. A
// nil error certifies the UNSAT result without trusting the search.
func (r *Recorder) Check(originals *cnf.Formula) error {
	if r.payload != Complete {
		return fmt.Errorf("core: only a Complete recorder keeps the literals a proof check needs")
	}
	if !r.proved {
		return fmt.Errorf("core: no final conflict recorded")
	}
	var target []lits.Lit
	var ants []sat.ClauseID
	for i := range r.antEnd.n {
		id := r.base + sat.ClauseID(i)
		lo, hi := r.span(&r.antEnd, id)
		if lo == hi {
			continue // a leaf: taken as given
		}
		ants = decodeRun(&r.ants, ants[:0], lo, hi, id)
		target, _ = r.clause(id, nil, target)
		// A clause is derived from clauses that exist: IDs below its own.
		if err := r.checkRUP(target, ants, id, originals); err != nil {
			return fmt.Errorf("core: learned clause %d not RUP from its antecedents: %w", id, err)
		}
	}
	known := r.base + sat.ClauseID(r.antEnd.n)
	if err := r.checkRUP(nil, r.final, known, originals); err != nil {
		return fmt.Errorf("core: final conflict not RUP: %w", err)
	}
	return nil
}

// checkRUP asserts the negation of target and unit-propagates over exactly
// the antecedent clauses, whose IDs must lie below limit; it succeeds when
// propagation derives a conflict.
func (r *Recorder) checkRUP(target []lits.Lit, ants []sat.ClauseID, limit sat.ClauseID, originals *cnf.Formula) error {
	assign := map[lits.Lit]bool{} // literal -> assigned true
	setLit := func(l lits.Lit) bool {
		if assign[l.Neg()] {
			return false // conflict
		}
		assign[l] = true
		return true
	}
	for _, l := range target {
		if !setLit(l.Neg()) {
			return nil // negating the target is already contradictory
		}
	}

	clauses := make([]cnf.Clause, 0, len(ants))
	for _, id := range ants {
		if id >= limit {
			return fmt.Errorf("antecedent %d not yet derived", id)
		}
		c, ok := r.clause(id, originals, nil)
		if !ok {
			return fmt.Errorf("antecedent %d has no literals on record", id)
		}
		clauses = append(clauses, c)
	}

	// Saturating propagation over the (small) antecedent set; quadratic but
	// the sets are short-lived and bounded by the conflict's footprint.
	for changed := true; changed; {
		changed = false
		for _, c := range clauses {
			var unit lits.Lit
			free := 0
			satisfied := false
			for _, l := range c {
				switch {
				case assign[l]:
					satisfied = true
				case assign[l.Neg()]:
					// falsified literal
				default:
					unit = l
					free++
				}
				if satisfied || free > 1 {
					break
				}
			}
			if satisfied || free > 1 {
				continue
			}
			if free == 0 {
				return nil // conflict: RUP succeeds
			}
			if !setLit(unit) {
				return nil
			}
			changed = true
		}
	}
	return fmt.Errorf("propagation over %d antecedents did not conflict", len(ants))
}
