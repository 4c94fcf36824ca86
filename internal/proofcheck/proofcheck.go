// Package proofcheck certifies an UNSAT answer and its unsat core with code
// that shares nothing with the solver or the recorder it audits: a proof is
// plain data, and Check replays only what the final conflict reaches, in the
// spirit of the resolution-based checker of Zhang & Malik the paper cites.
package proofcheck

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// Clause is one clause of a proof. A leaf has no antecedents: it was given,
// not derived. A learnt clause names the clauses it was derived from.
type Clause struct {
	Lits cnf.Clause
	Ants []int
}

// Proof is a refutation as a solver recorded it: the clauses by ID, nil
// where there is no record; the final conflict's antecedents; and the
// failed assumptions it holds under, none for an outright refutation.
type Proof struct {
	Clauses     []*Clause
	Final       []int
	Assumptions []lits.Lit
}

// Check certifies p and core. Walking down from the final conflict, each
// learnt clause it reaches must follow by reverse unit propagation (RUP)
// from its antecedents, all of lower ID; the final conflict must follow
// from its antecedents once the assumptions hold; and the leaves reached
// must be exactly core. A clause the cone reaches must be on record; those
// outside it are never read. A nil error certifies the refutation and core.
func Check(p *Proof, core []int) error {
	if p == nil {
		return errors.New("proofcheck: no final conflict recorded")
	}
	inCone := make([]bool, len(p.Clauses))
	reach := func(ids []int, below int) error {
		for _, a := range ids {
			if a < 0 || a >= below || p.Clauses[a] == nil {
				return fmt.Errorf("antecedent %d is not a clause on record below %d", a, below)
			}
			inCone[a] = true
		}
		return nil
	}
	if err := reach(p.Final, len(p.Clauses)); err != nil {
		return fmt.Errorf("proofcheck: final conflict: %w", err)
	}
	var c checker
	// A clause is derived from clauses of lower ID, so one descending pass
	// visits each clause of the cone after everything derived from it.
	var leaves []int
	for id := len(p.Clauses) - 1; id >= 0; id-- {
		if !inCone[id] {
			continue
		}
		cl := p.Clauses[id]
		if len(cl.Ants) == 0 {
			leaves = append(leaves, id)
			continue
		}
		if err := reach(cl.Ants, id); err != nil {
			return fmt.Errorf("proofcheck: learnt clause %d: %w", id, err)
		}
		if !c.rup(p, cl.Lits, cl.Ants) {
			return fmt.Errorf("proofcheck: learnt clause %d is not RUP from its antecedents", id)
		}
	}
	// The final conflict derives the clause that negates the assumptions.
	negated := make(cnf.Clause, len(p.Assumptions))
	for i, a := range p.Assumptions {
		negated[i] = a.Neg()
	}
	if !c.rup(p, negated, p.Final) {
		return errors.New("proofcheck: final conflict does not propagate under the assumptions")
	}
	slices.Reverse(leaves)
	if want := slices.Sorted(slices.Values(core)); !slices.Equal(leaves, want) {
		return fmt.Errorf("proofcheck: the final conflict's cone reaches the leaves %v, not the core %v", leaves, want)
	}
	return nil
}

// checker holds the RUP replays' assignment: a literal is true while its entry
// is the number of the replay under way, so counting up clears the last one.
type checker struct {
	trueIn []uint32 // by literal index
	replay uint32
	open   []int // antecedents neither satisfied nor used yet
}

// rup reports whether unit propagation over the clauses ants names derives
// a conflict once every literal of target is false.
func (c *checker) rup(p *Proof, target cnf.Clause, ants []int) bool {
	c.replay++
	for _, l := range target {
		if c.value(l) {
			return true // target is a tautology
		}
		c.set(l.Neg())
	}
	c.open = append(c.open[:0], ants...)
	for progress := true; progress; {
		progress = false
		kept := c.open[:0]
		for _, a := range c.open {
			free, unit := 0, lits.Lit(0)
			for _, l := range p.Clauses[a].Lits {
				if c.value(l) {
					free = -1 // satisfied: never unit again
					break
				}
				if !c.value(l.Neg()) && (free == 0 || l != unit) {
					free, unit = free+1, l // a repeated literal counts once
				}
			}
			switch {
			case free == 0:
				return true
			case free == 1:
				c.set(unit)
				progress = true
			case free > 1:
				kept = append(kept, a)
			}
		}
		c.open = kept
	}
	return false
}

// value reports whether l is true.
func (c *checker) value(l lits.Lit) bool {
	return l.Index() < len(c.trueIn) && c.trueIn[l.Index()] == c.replay
}

// set makes l true.
func (c *checker) set(l lits.Lit) {
	for len(c.trueIn) <= l.Index() {
		c.trueIn = append(c.trueIn, 0)
	}
	c.trueIn[l.Index()] = c.replay
}
