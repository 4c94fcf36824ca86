package cnf

import (
	"testing"

	"repro/internal/lits"
)

func TestNewClauseFromDimacs(t *testing.T) {
	c := NewClause(1, -2, 3)
	want := Clause{lits.PosLit(1), lits.NegLit(2), lits.PosLit(3)}
	if len(c) != len(want) {
		t.Fatalf("len=%d", len(c))
	}
	for i := range c {
		if c[i] != want[i] {
			t.Errorf("lit %d: got %v want %v", i, c[i], want[i])
		}
	}
}

func TestClauseNormalize(t *testing.T) {
	c, taut := NewClause(3, 1, 3, -2, 1).Normalize()
	if taut {
		t.Fatalf("not a tautology")
	}
	if len(c) != 3 {
		t.Fatalf("dedup failed: %v", c)
	}
	_, taut = NewClause(1, -2, -1).Normalize()
	if !taut {
		t.Errorf("x1 | ~x2 | ~x1 must be a tautology")
	}
}

func TestClauseValue(t *testing.T) {
	a := lits.NewAssignment(3)
	c := NewClause(1, 2, -3)
	if got := c.Value(a); got != lits.Undef {
		t.Errorf("empty assignment: got %v", got)
	}
	a.Set(3, lits.True)
	if got := c.Value(a); got != lits.Undef {
		t.Errorf("partially falsified: got %v", got)
	}
	a.Set(1, lits.False)
	a.Set(2, lits.False)
	if got := c.Value(a); got != lits.False {
		t.Errorf("all false: got %v", got)
	}
	a.Set(2, lits.True)
	if got := c.Value(a); got != lits.True {
		t.Errorf("satisfied: got %v", got)
	}
}

func TestEmptyClauseIsFalse(t *testing.T) {
	a := lits.NewAssignment(1)
	if got := (Clause{}).Value(a); got != lits.False {
		t.Errorf("empty clause must be False, got %v", got)
	}
}

func TestFormulaAddGrowsVars(t *testing.T) {
	f := New(2)
	f.Add(1, -5)
	if f.NumVars != 5 {
		t.Errorf("NumVars=%d, want 5", f.NumVars)
	}
}

func TestFormulaValueAndSatisfied(t *testing.T) {
	f := New(3)
	f.Add(1, 2)
	f.Add(-1, 3)
	a := lits.NewAssignment(3)
	a.Set(1, lits.True)
	a.Set(3, lits.True)
	if !f.Satisfied(a) {
		t.Errorf("assignment should satisfy formula")
	}
	a.Set(3, lits.False)
	if f.Value(a) != lits.False {
		t.Errorf("falsified clause not detected")
	}
}

func TestFormulaNumLiterals(t *testing.T) {
	f := New(3)
	f.Add(1, 2, 3)
	f.Add(-1)
	if got := f.NumLiterals(); got != 4 {
		t.Errorf("NumLiterals=%d, want 4", got)
	}
}

func TestFormulaSubset(t *testing.T) {
	f := New(3)
	f.Add(1, 2)
	f.Add(-1, 3)
	f.Add(-2, -3)
	g := f.Subset([]int{0, 2})
	if g.NumClauses() != 2 || g.NumVars != 3 {
		t.Fatalf("subset wrong shape: %v", g)
	}
	if g.Clause(1).String() != "(~x2 | ~x3)" {
		t.Errorf("subset picked wrong clause: %v", g.Clause(1))
	}
}

func TestFormulaCopyIndependent(t *testing.T) {
	f := New(2)
	f.Add(1, 2)
	g := f.Copy()
	g.Clause(0)[0] = lits.NegLit(1)
	if f.Clause(0)[0] != lits.PosLit(1) {
		t.Errorf("copy shares clause storage")
	}
}

func TestFormulaVars(t *testing.T) {
	f := New(10)
	f.Add(2, -5)
	f.Add(5, 7)
	vs := f.Vars()
	want := []lits.Var{2, 5, 7}
	if len(vs) != len(want) {
		t.Fatalf("Vars()=%v", vs)
	}
	for i := range vs {
		if vs[i] != want[i] {
			t.Errorf("Vars()[%d]=%v want %v", i, vs[i], want[i])
		}
	}
}
