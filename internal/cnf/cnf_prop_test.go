package cnf

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lits"
)

// mkClause converts DIMACS-style ints, skipping zeros (quick.Check feeds
// arbitrary ints).
func mkClause(ds []int8) Clause {
	c := Clause{}
	for _, d := range ds {
		v := int(d)
		if v == 0 {
			continue
		}
		if v > 64 {
			v = v % 64
		}
		if v < -64 {
			v = -(-v % 64)
		}
		if v != 0 {
			c = append(c, lits.FromDimacs(v))
		}
	}
	return c
}

// TestPropertyNormalizeIdempotent: normalizing twice equals normalizing
// once, and a tautology verdict is stable.
func TestPropertyNormalizeIdempotent(t *testing.T) {
	check := func(ds []int8) bool {
		c := mkClause(ds)
		n1, taut1 := c.Copy().Normalize()
		if taut1 {
			_, taut2 := n1.Copy().Normalize()
			_ = taut2 // a tautology's normal form is unspecified; nothing further to check
			return true
		}
		n2, taut2 := n1.Copy().Normalize()
		if taut2 || len(n1) != len(n2) {
			return false
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNormalizePreservesSemantics: under every total assignment of
// the mentioned variables, the normalized clause has the same value as the
// original (tautologies are always true).
func TestPropertyNormalizePreservesSemantics(t *testing.T) {
	check := func(ds []int8) bool {
		c := mkClause(ds)
		if len(c) > 10 {
			c = c[:10]
		}
		// Fold the variable space down so exhaustive enumeration stays
		// tractable (2^maxVar assignments).
		for i, l := range c {
			v := lits.Var(int(l.Var()-1)%8 + 1)
			c[i] = lits.MkLit(v, l.Sign())
		}
		n, taut := c.Copy().Normalize()
		maxVar := c.MaxVar()
		assign := lits.NewAssignment(int(maxVar))
		var rec func(v lits.Var) bool
		rec = func(v lits.Var) bool {
			if int(v) > int(maxVar) {
				origTrue := c.Value(assign) == lits.True
				var normTrue bool
				if taut {
					normTrue = true
				} else {
					normTrue = n.Value(assign) == lits.True
				}
				return origTrue == normTrue
			}
			for _, b := range []lits.TriBool{lits.True, lits.False} {
				assign.Set(v, b)
				if !rec(v + 1) {
					return false
				}
			}
			assign.Set(v, lits.Undef)
			return true
		}
		return rec(1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDimacsRoundTrip: over random clause lists, empty clauses
// included, the flat formula AddClause builds agrees with the list in every
// view — Clause(i), range f.Clauses, NumClauses and NumLiterals — and
// write + parse reproduces it exactly (clause order and literal order
// included). AddClause copies: rewriting the clause it was given changes
// nothing. And a clause handed out is capped: appending to it never writes
// into the next clause.
func TestPropertyDimacsRoundTrip(t *testing.T) {
	check := func(clauses [][]int8) bool {
		f := New(0)
		var want []Clause
		literals := 0
		for _, ds := range clauses {
			c := mkClause(ds)
			f.AddClause(c)
			want = append(want, c.Copy())
			literals += len(c)
			for i := range c {
				c[i] = c[i].Neg()
			}
		}
		if f.NumClauses() != len(want) || f.NumLiterals() != literals {
			return false
		}
		n := 0
		for i, c := range f.Clauses {
			if i != n || !slices.Equal(c, want[i]) || !slices.Equal(f.Clause(i), want[i]) {
				return false
			}
			n++
		}
		if n != len(want) {
			return false
		}
		for i := 0; i+1 < len(want); i++ {
			_ = append(f.Clause(i), lits.PosLit(99))
			if !slices.Equal(f.Clause(i+1), want[i+1]) {
				return false
			}
		}
		g, err := ParseDimacsString(DimacsString(f))
		if err != nil || g.NumVars != f.NumVars || !slices.Equal(g.Ends, f.Ends) || !slices.Equal(g.Lits, f.Lits) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySubsetValue: a subset formula is satisfied by any assignment
// satisfying the full formula.
func TestPropertySubsetValue(t *testing.T) {
	f := New(4)
	f.Add(1, 2)
	f.Add(-1, 3)
	f.Add(-3, 4)
	f.Add(2, -4)
	sub := f.Subset([]int{0, 2})
	if sub.NumClauses() != 2 {
		t.Fatalf("subset has %d clauses", sub.NumClauses())
	}
	a := lits.NewAssignment(4)
	for _, v := range []int{1, 2, 3, 4} {
		a.Set(lits.Var(v), lits.True)
	}
	if !f.Satisfied(a) {
		t.Fatal("assignment should satisfy the full formula")
	}
	if !sub.Satisfied(a) {
		t.Fatal("assignment must satisfy every subset")
	}
}

// TestParseDimacsTolerance: comments, blank lines, and multi-line clauses.
func TestParseDimacsTolerance(t *testing.T) {
	src := strings.Join([]string{
		"c a comment",
		"",
		"p cnf 3 2",
		"1 -2",
		"0",
		"c mid comment",
		"2 3 0",
	}, "\n")
	f, err := ParseDimacsString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("parsed %d vars %d clauses", f.NumVars, f.NumClauses())
	}
	if len(f.Clause(0)) != 2 || len(f.Clause(1)) != 2 {
		t.Fatalf("clause shapes wrong: %v", f)
	}
}
