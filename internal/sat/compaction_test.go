package sat_test

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/sat"
)

// pigeons builds PHP(p, h): p pigeons into h holes, unsat when p > h.
func pigeons(p, h int) *cnf.Formula {
	f := cnf.New(p * h)
	v := func(pigeon, hole int) int { return pigeon*h + hole + 1 }
	for i := 0; i < p; i++ {
		c := make(cnf.Clause, 0, h)
		for j := 0; j < h; j++ {
			c = append(c, lits.FromDimacs(v(i, j)))
		}
		f.AddClause(c)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				f.Add(-v(i1, j), -v(i2, j))
			}
		}
	}
	return f
}

// TestCompactionKeepsSearch runs a refutation that reduces its learnt
// database several times, each reduction leaving enough garbage to compact
// the arena, and checks that moving clauses changed nothing the search, the
// proof recorder or the clause exchange can see.
func TestCompactionKeepsSearch(t *testing.T) {
	f := pigeons(9, 8)
	rec := core.NewRecorder(f.NumClauses())
	opts := sat.Defaults()
	opts.MaxLearntFrac = 0.0001 // the floor of 1000 learnt clauses applies
	opts.Recorder = rec
	s := sat.New(f, opts)
	r := s.Solve()
	if r.Status != sat.Unsat {
		t.Fatalf("PHP(9,8) = %v, want Unsat", r.Status)
	}
	if n := s.Compactions(); n < 2 {
		t.Fatalf("%d compactions, want several: the test no longer exercises what it is for", n)
	}

	// The search of the pointer-based clause store this arena replaced, run
	// at its last commit. The arena is a layout: any difference is a bug.
	got := r.Stats
	got.SolveTime = 0
	want := sat.Stats{
		Decisions: 5461, Implications: 94207, Conflicts: 4680, Restarts: 24,
		Learned: 4679, LearnedLits: 77283, Deleted: 3853, MaxLevel: 28,
	}
	if got != want {
		t.Errorf("search moved:\n got %+v\nwant %+v", got, want)
	}

	// Proof IDs travel with the clauses: the recorded core is still a
	// refutation.
	coreF := f.Subset(rec.Core())
	if cr := sat.New(coreF, sat.Defaults()).Solve(); cr.Status != sat.Unsat {
		t.Errorf("core of %d clauses = %v, want Unsat", coreF.NumClauses(), cr.Status)
	}

	// What survives in the arena is still well-formed clauses over the
	// formula's variables, and consequences of it.
	exported := s.ExportLearned(sat.ClauseID(f.NumClauses()), 8, 0, 0)
	if len(exported) == 0 {
		t.Fatal("nothing to export after a search with learnt clauses left")
	}
	fresh := sat.New(f, sat.Defaults())
	for _, c := range exported {
		norm, taut := c.Copy().Normalize()
		if taut || len(norm) != len(c) || int(c.MaxVar()) > f.NumVars {
			t.Fatalf("exported clause %v is not a normalised clause of the formula", c)
		}
		fresh.ImportClause(c)
	}
	if fr := fresh.Solve(); fr.Status != sat.Unsat {
		t.Errorf("with %d imported clauses: %v, want Unsat", len(exported), fr.Status)
	}
}
