package cnf

import "repro/internal/lits"

// The builder helpers below emit the standard Tseitin gate encodings used
// by the circuit unroller. Each AddX method asserts "out <-> gate(inputs)"
// as CNF clauses, every one normalised as it is added: literals ascending,
// no duplicate, and a tautology not added at all — the form the solver
// stores, so loading them sorts nothing. They live here (rather than in the
// unroller) so they can be unit-tested against truth tables in isolation
// and reused by other encoders.

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

// AddOr2 encodes out <-> (a | b): three clauses.
func (f *Formula) AddOr2(out, a, b lits.Lit) {
	f.addNormalised(out, a.Neg())
	f.addNormalised(out, b.Neg())
	f.addNormalised(out.Neg(), a, b)
}

// AddXor2 encodes out <-> (a ^ b): four clauses.
func (f *Formula) AddXor2(out, a, b lits.Lit) {
	f.addNormalised(out.Neg(), a, b)
	f.addNormalised(out.Neg(), a.Neg(), b.Neg())
	f.addNormalised(out, a.Neg(), b)
	f.addNormalised(out, a, b.Neg())
}

// AddEq encodes out <-> a: two clauses (a buffer, or an inverter when one
// side is negated).
func (f *Formula) AddEq(out, a lits.Lit) {
	f.addNormalised(out.Neg(), a)
	f.addNormalised(out, a.Neg())
}

// AddMux encodes out <-> (sel ? a : b).
func (f *Formula) AddMux(out, sel, a, b lits.Lit) {
	f.addNormalised(out.Neg(), sel.Neg(), a)
	f.addNormalised(out, sel.Neg(), a.Neg())
	f.addNormalised(out.Neg(), sel, b)
	f.addNormalised(out, sel, b.Neg())
}

// AddAndN encodes out <-> AND(ins...). With no inputs the AND is the
// constant true, so a unit clause on out is emitted.
func (f *Formula) AddAndN(out lits.Lit, ins ...lits.Lit) {
	long := make(Clause, 0, len(ins)+1)
	long = append(long, out)
	for _, in := range ins {
		f.addNormalised(out.Neg(), in)
		long = append(long, in.Neg())
	}
	f.addNormalised(long...)
}

// AddOrN encodes out <-> OR(ins...). With no inputs the OR is the constant
// false.
func (f *Formula) AddOrN(out lits.Lit, ins ...lits.Lit) {
	long := make(Clause, 0, len(ins)+1)
	long = append(long, out.Neg())
	for _, in := range ins {
		f.addNormalised(out, in.Neg())
		long = append(long, in)
	}
	f.addNormalised(long...)
}

// AtMostOnePairwise adds the quadratic pairwise encoding of "at most one of
// ls is true". Fine for the small cardinalities used in this repo.
func (f *Formula) AtMostOnePairwise(ls ...lits.Lit) {
	for i := 0; i < len(ls); i++ {
		for j := i + 1; j < len(ls); j++ {
			f.addNormalised(ls[i].Neg(), ls[j].Neg())
		}
	}
}
