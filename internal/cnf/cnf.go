// Package cnf provides clause and formula representations for propositional
// logic in conjunctive normal form, together with DIMACS serialization and
// small structural utilities (deduplication, tautology detection,
// evaluation under partial assignments).
//
// Formulas in this package are the hand-off format between the circuit
// unroller and the SAT solver; the solver copies clauses into its own
// internal store, so a Formula is a plain, inspectable value. A Formula is
// flat: one array of every clause's literals back to back and one end
// offset per clause, so a clause costs its literals and four bytes, and
// adding one allocates nothing once the arrays have room. Clause(i) and
// range f.Clauses hand out views of that array, never copies.
package cnf

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/lits"
)

// Clause is a disjunction of literals.
type Clause []lits.Lit

// NewClause builds a clause from DIMACS-style signed ints; convenient in
// tests and builders.
func NewClause(ds ...int) Clause {
	c := make(Clause, len(ds))
	for i, d := range ds {
		c[i] = lits.FromDimacs(d)
	}
	return c
}

// Copy returns an independent copy of the clause.
func (c Clause) Copy() Clause {
	d := make(Clause, len(c))
	copy(d, c)
	return d
}

// Normalize sorts the literals, removes duplicates, and reports whether the
// clause is a tautology (contains both x and ¬x). The returned clause
// shares the receiver's backing array.
func (c Clause) Normalize() (Clause, bool) { return NormalizeLits(c) }

// NormalizeLits is Normalize over any slice of packed literals: the solver
// keeps its clauses in a []uint32 store and normalises them where they lie.
// A clause that is already strictly ascending — every clause the unroller
// emits — costs one pass and no sort. On a tautology the returned clause's
// order is unspecified.
func NormalizeLits[S ~[]E, E ~int32 | ~uint32](c S) (S, bool) {
	for i := 1; i < len(c); i++ {
		switch {
		case c[i] <= c[i-1]:
			return normalizeSorting(c)
		case c[i] == c[i-1]^1:
			return c, true // ascending, so x and ¬x are neighbours
		}
	}
	return c, false
}

// normalizeSorting is NormalizeLits for a clause that is not ascending.
func normalizeSorting[S ~[]E, E ~int32 | ~uint32](c S) (S, bool) {
	slices.Sort(c)
	out := c[:1]
	for _, l := range c[1:] {
		last := out[len(out)-1]
		if l == last {
			continue // duplicate
		}
		if l == last^1 {
			return c, true // tautology: x and ¬x differ in the low bit and sort adjacent
		}
		out = append(out, l)
	}
	return out, false
}

// Value evaluates the clause under a (possibly partial) assignment:
// True if some literal is true, False if all literals are false,
// Undef otherwise.
func (c Clause) Value(a lits.Assignment) lits.TriBool {
	undef := false
	for _, l := range c {
		switch a.LitValue(l) {
		case lits.True:
			return lits.True
		case lits.Undef:
			undef = true
		}
	}
	if undef {
		return lits.Undef
	}
	return lits.False
}

// MaxVar returns the largest variable occurring in the clause.
func (c Clause) MaxVar() lits.Var {
	var m lits.Var
	for _, l := range c {
		if l.Var() > m {
			m = l.Var()
		}
	}
	return m
}

// String returns a human-readable rendering "(x1 | ~x2 | x3)".
func (c Clause) String() string {
	if len(c) == 0 {
		return "()"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// Formula is a CNF formula: a conjunction of clauses over variables
// 1..NumVars, stored flat. Clause i is Lits[Ends[i-1]:Ends[i]] (the first
// starts at 0), and i is its "original clause ID" for unsat-core purposes.
type Formula struct {
	// NumVars is the number of variables; variables are 1..NumVars.
	// Clauses may use fewer variables, but never more.
	NumVars int
	// Lits holds the literals of every clause back to back, in clause
	// order.
	Lits []lits.Lit
	// Ends holds one end offset into Lits per clause, ascending: its
	// length is the clause count and its last entry len(Lits).
	Ends []int32
}

// New creates an empty formula over n variables.
func New(n int) *Formula {
	return &Formula{NumVars: n}
}

// Clause returns clause i, a view of the formula's literals capped at its
// length: appending to it copies and never reaches clause i+1.
func (f *Formula) Clause(i int) Clause {
	var lo int32
	if i > 0 {
		lo = f.Ends[i-1]
	}
	hi := f.Ends[i]
	return Clause(f.Lits[lo:hi:hi])
}

// Clauses yields every clause with its ID, in order, each as Clause
// returns it: for i, c := range f.Clauses.
func (f *Formula) Clauses(yield func(int, Clause) bool) {
	var lo int32
	for i, hi := range f.Ends {
		if !yield(i, Clause(f.Lits[lo:hi:hi])) {
			return
		}
		lo = hi
	}
}

// AddClause appends a copy of c, growing NumVars if the clause mentions a
// larger variable; c may be reused afterwards.
func (f *Formula) AddClause(c Clause) {
	if mv := int(c.MaxVar()); mv > f.NumVars {
		f.NumVars = mv
	}
	f.Lits = append(f.Lits, c...)
	if len(f.Lits) > math.MaxInt32 {
		panic("cnf: a formula holds at most 2^31-1 literals")
	}
	f.Ends = append(f.Ends, int32(len(f.Lits)))
}

// Add appends a clause given as DIMACS-style ints.
func (f *Formula) Add(ds ...int) {
	f.AddClause(NewClause(ds...))
}

// AddUnit appends a unit clause asserting l.
func (f *Formula) AddUnit(l lits.Lit) {
	f.AddClause(Clause{l})
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Ends) }

// NumLiterals returns the total number of literal occurrences across all
// clauses. This is the quantity the paper's dynamic strategy divides by 64
// to derive its decision threshold.
func (f *Formula) NumLiterals() int { return len(f.Lits) }

// Value evaluates the formula under an assignment: False if any clause is
// false, True if all clauses are true, Undef otherwise.
func (f *Formula) Value(a lits.Assignment) lits.TriBool {
	allTrue := true
	for _, c := range f.Clauses {
		switch c.Value(a) {
		case lits.False:
			return lits.False
		case lits.Undef:
			allTrue = false
		}
	}
	if allTrue {
		return lits.True
	}
	return lits.Undef
}

// Satisfied reports whether the total assignment a satisfies every clause.
func (f *Formula) Satisfied(a lits.Assignment) bool {
	return f.Value(a) == lits.True
}

// Copy returns a deep copy of the formula.
func (f *Formula) Copy() *Formula {
	return &Formula{NumVars: f.NumVars, Lits: slices.Clone(f.Lits), Ends: slices.Clone(f.Ends)}
}

// Subset returns a new formula containing copies of the clauses whose IDs
// (indices) are listed, in that order. The variable count is preserved so
// variable identities remain stable.
func (f *Formula) Subset(ids []int) *Formula {
	g := &Formula{NumVars: f.NumVars, Ends: make([]int32, 0, len(ids))}
	for _, id := range ids {
		g.Lits = append(g.Lits, f.Clause(id)...)
		g.Ends = append(g.Ends, int32(len(g.Lits)))
	}
	return g
}

// Vars returns the sorted set of variables actually occurring in clauses.
func (f *Formula) Vars() []lits.Var {
	seen := make([]bool, f.NumVars+1)
	for _, l := range f.Lits {
		seen[l.Var()] = true
	}
	var out []lits.Var
	for v := lits.Var(1); int(v) <= f.NumVars; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the formula compactly; intended for debugging small
// formulas only.
func (f *Formula) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cnf(vars=%d, clauses=%d)", f.NumVars, f.NumClauses())
	for _, c := range f.Clauses {
		b.WriteString(" ")
		b.WriteString(c.String())
	}
	return b.String()
}
