package sat

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// phpFormula builds the pigeonhole formula PHP(p, h): unsat when p > h and
// conflict-heavy enough to populate the learned-clause database.
func phpFormula(p, h int) *cnf.Formula {
	f := cnf.New(p * h)
	v := func(pi, hi int) int { return pi*h + hi + 1 }
	for pi := 0; pi < p; pi++ {
		c := make(cnf.Clause, h)
		for hi := 0; hi < h; hi++ {
			c[hi] = lits.PosLit(lits.Var(v(pi, hi)))
		}
		f.AddClause(c)
	}
	for hi := 0; hi < h; hi++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				f.Add(-v(a, hi), -v(b, hi))
			}
		}
	}
	return f
}

func TestExportLearnedFilterAndMark(t *testing.T) {
	f := phpFormula(7, 6)
	s := New(f, Options{})
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("php(7,6) = %v, want Unsat", r.Status)
	}
	const maxLen, maxLBD = 5, 3
	out := s.ExportLearned(ClauseID(f.NumClauses()), maxLen, maxLBD, 0)
	if len(out) == 0 {
		t.Fatalf("no clauses exported from an unsat search with %d learned", s.Stats().Learned)
	}
	// Every exported clause passes at least the length criterion or came
	// through the LBD criterion; clauses longer than maxLen must then owe
	// their export to a small LBD, which we cannot observe from outside —
	// but nothing may exceed both bounds by construction.
	for _, c := range out {
		if len(c) > maxLen && len(c) <= maxLBD {
			t.Fatalf("clause %v cannot satisfy either filter", c)
		}
	}
	// The high-water mark makes a second export without new conflicts empty.
	mark := s.NextClauseID()
	if again := s.ExportLearned(mark, maxLen, maxLBD, 0); len(again) != 0 {
		t.Fatalf("export past the mark returned %d clauses, want 0", len(again))
	}
	// A limit keeps at most that many clauses.
	if capped := s.ExportLearned(ClauseID(f.NumClauses()), maxLen, maxLBD, 3); len(capped) > 3 {
		t.Fatalf("limit 3 returned %d clauses", len(capped))
	}
}

func TestImportClauseDedupAndTautology(t *testing.T) {
	s := New(cnf.New(4), Options{})
	cl := cnf.Clause{lits.PosLit(1), lits.NegLit(2)}
	if _, ok := s.ImportClause(cl); !ok {
		t.Fatalf("first import rejected")
	}
	if _, ok := s.ImportClause(cnf.Clause{lits.NegLit(2), lits.PosLit(1)}); ok {
		t.Fatalf("permuted duplicate import accepted")
	}
	if _, ok := s.ImportClause(cnf.Clause{lits.PosLit(3), lits.NegLit(3)}); ok {
		t.Fatalf("tautology import accepted")
	}
}

func TestImportUnitTakesEffect(t *testing.T) {
	// x1 free in the formula; importing the unit (x1) pins it.
	f := cnf.New(2)
	f.Add(1, 2)
	s := New(f, Options{})
	if _, ok := s.ImportClause(cnf.Clause{lits.PosLit(1)}); !ok {
		t.Fatalf("unit import rejected")
	}
	r := s.Solve()
	if r.Status != Sat {
		t.Fatalf("status %v, want Sat", r.Status)
	}
	if r.Model.Value(1) != lits.True {
		t.Fatalf("imported unit not honoured: x1 = %v", r.Model.Value(1))
	}
}

func TestImportConflictingUnitsUnsat(t *testing.T) {
	s := New(cnf.New(1), Options{})
	s.ImportClause(cnf.Clause{lits.PosLit(1)})
	s.ImportClause(cnf.Clause{lits.NegLit(1)})
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("status %v, want Unsat after contradictory imports", r.Status)
	}
}

// TestImportForeignNotReExported: a clause that arrived through the bus
// must not leave through it again (echo suppression).
func TestImportForeignNotReExported(t *testing.T) {
	f := cnf.New(6)
	f.Add(1, 2, 3)
	s := New(f, Options{})
	mark := s.NextClauseID()
	if _, ok := s.ImportClause(cnf.Clause{lits.PosLit(4), lits.PosLit(5)}); !ok {
		t.Fatalf("import rejected")
	}
	if out := s.ExportLearned(mark, 10, 10, 0); len(out) != 0 {
		t.Fatalf("foreign clause re-exported: %v", out)
	}
}

// TestExchangeRoundTripPreservesVerdict: clauses learned by one solver,
// imported into a fresh solver over the same formula, must leave the
// verdict untouched (they are consequences) on both an unsat and a sat
// instance.
func TestExchangeRoundTripPreservesVerdict(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		want Status
	}{
		{"unsat", phpFormula(6, 5), Unsat},
		{"sat", phpFormula(5, 5), Sat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(tc.f, Options{})
			if r := a.Solve(); r.Status != tc.want {
				t.Fatalf("sender verdict %v, want %v", r.Status, tc.want)
			}
			shared := a.ExportLearned(ClauseID(tc.f.NumClauses()), 8, 4, 0)
			b := New(tc.f, Options{})
			imported := 0
			for _, cl := range shared {
				if _, ok := b.ImportClause(cl); ok {
					imported++
				}
			}
			r := b.Solve()
			if r.Status != tc.want {
				t.Fatalf("receiver verdict %v after importing %d clauses, want %v",
					r.Status, imported, tc.want)
			}
			if tc.want == Sat {
				if err := VerifyModel(tc.f, r.Model); err != nil {
					t.Fatalf("receiver model invalid: %v", err)
				}
			}
		})
	}
}

// TestSetStopReplacesChannel: a closed channel interrupts the next solve;
// installing a fresh (or nil) channel afterwards makes the solver usable
// again — the lifecycle every persistent racer goes through per race.
func TestSetStopReplacesChannel(t *testing.T) {
	f := phpFormula(8, 7)
	s := New(f, tuned(func(tu *tuning) { tu.pollEvery = 1 }))
	stopped := make(chan struct{})
	close(stopped)
	s.SetStop(stopped)
	if r := s.Solve(); r.Status != Interrupted {
		t.Fatalf("status %v under a closed stop channel, want Interrupted", r.Status)
	}
	s.SetStop(nil)
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("status %v after clearing stop, want Unsat", r.Status)
	}
}

// TestImportIntoLiveIncrementalSolver exercises the exact pool sequence:
// solve under an assumption, import at the depth boundary, solve again.
func TestImportIntoLiveIncrementalSolver(t *testing.T) {
	f := phpFormula(6, 5)
	s := New(f, Options{})
	// Under the assumption that pigeon 0 avoids hole 0 the instance is
	// still unsat; solve, import something, solve again.
	r := s.SolveAssuming([]lits.Lit{lits.NegLit(1)})
	if r.Status != Unsat {
		t.Fatalf("assumed solve = %v, want Unsat", r.Status)
	}
	if _, ok := s.ImportClause(cnf.Clause{lits.NegLit(1), lits.NegLit(2)}); !ok {
		t.Fatalf("import into live solver rejected")
	}
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("second solve = %v, want Unsat", r.Status)
	}
}
