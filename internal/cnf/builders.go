package cnf

import "repro/internal/lits"

// The builder helpers below emit the two Tseitin gate encodings the
// circuit unroller uses, an AND gate and a buffer or inverter. Each asserts
// "out <-> gate(inputs)" as CNF clauses, every one normalised as it is
// added: literals ascending, no duplicate, and a tautology not added at
// all — the form the solver stores, so loading them sorts nothing. They
// live here (rather than in the unroller) so they can be unit-tested
// against truth tables in isolation.

// addNormalised appends the clause of ls normalised, or nothing when it is
// a tautology.
func (f *Formula) addNormalised(ls ...lits.Lit) {
	if c, taut := Clause(ls).Normalize(); !taut {
		f.AddClause(c)
	}
}

// AddAnd2 encodes out <-> (a & b): three clauses.
func (f *Formula) AddAnd2(out, a, b lits.Lit) {
	f.addNormalised(out.Neg(), a)
	f.addNormalised(out.Neg(), b)
	f.addNormalised(out, a.Neg(), b.Neg())
}

// AddEq encodes out <-> a: two clauses (a buffer, or an inverter when one
// side is negated).
func (f *Formula) AddEq(out, a lits.Lit) {
	f.addNormalised(out.Neg(), a)
	f.addNormalised(out, a.Neg())
}
