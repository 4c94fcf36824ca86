package sat_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/proofcheck"
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

// pageWatch is a Complete recorder that notes the most pages its solver's
// arena has held.
type pageWatch struct {
	*core.Recorder
	s    *sat.Solver
	most int
}

func (w *pageWatch) RecordLearned(id sat.ClauseID, literals []lits.Lit, ants []sat.ClauseID) {
	w.Recorder.RecordLearned(id, literals, ants)
	w.most = max(w.most, w.s.ArenaPages())
}

// TestCompactionKeepsSearch runs refutations that reduce their learnt
// database several times, each reduction leaving enough garbage to compact
// the arena, and checks that moving clauses changed nothing the search, the
// proof recorder or the clause exchange can see. PHP(9,8) compacts inside
// two pages; add_w8's depth-5 instance spans three, so its compactions move
// clauses from one page to another.
func TestCompactionKeepsSearch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		f     *cnf.Formula
		pages int
		// The search of the pointer-based clause store this arena replaced,
		// run at its last commit, and of the contiguous arena before pages.
		// The layout is only a layout: any difference is a bug.
		want sat.Stats
	}{
		{"PHP(9,8)", pigeons(9, 8), 2, sat.Stats{
			Decisions: 5461, Implications: 94207, Conflicts: 4680, Restarts: 24,
			Learned: 4679, LearnedLits: 77283, Deleted: 3853, MaxLevel: 28,
		}},
		{"add_w8 depth 5", instance(t, bench.AdderTwin(8, 0, 0), 5), 3, sat.Stats{
			Decisions: 40087, Implications: 2555719, Conflicts: 18835, Restarts: 62,
			Learned: 18834, LearnedLits: 307678, Deleted: 16074, MaxLevel: 53,
		}},
	} {
		f := tc.f
		rec := &pageWatch{Recorder: core.NewRecorderWith(f.NumClauses(), core.Complete)}
		s := sat.New(f, sat.Options{Recorder: rec})
		rec.s = s
		r := s.Solve()
		if r.Status != sat.Unsat {
			t.Fatalf("%s = %v, want Unsat", tc.name, r.Status)
		}
		if n := s.Compactions(); n < 2 || rec.most < tc.pages {
			t.Fatalf("%s: %d compactions over %d pages, want several over at least %d: the test no longer exercises what it is for",
				tc.name, n, rec.most, tc.pages)
		}

		got := r.Stats
		got.SolveTime = 0
		if got != tc.want {
			t.Errorf("%s: search moved:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}

		// Proof IDs travel with the clauses: every learnt clause the final
		// conflict reaches follows by reverse unit propagation from the
		// antecedents it was recorded with, the final conflict from its
		// own, and the leaves reached are the core. The replay reads the
		// recorded clauses and the formula, nothing of the arena.
		if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err != nil {
			t.Errorf("%s: the proof does not check: %v", tc.name, err)
		}

		// What survives in the arena is still well-formed clauses over the
		// formula's variables, and consequences of it.
		exported := s.ExportLearned(sat.ClauseID(f.NumClauses()), 8, 0, 0)
		if len(exported) == 0 {
			t.Fatalf("%s: nothing to export after a search with learnt clauses left", tc.name)
		}
		fresh := sat.New(f, sat.Options{})
		for _, c := range exported {
			norm, taut := c.Copy().Normalize()
			if taut || len(norm) != len(c) || int(c.MaxVar()) > f.NumVars {
				t.Fatalf("%s: exported clause %v is not a normalised clause of the formula", tc.name, c)
			}
			fresh.ImportClause(c)
		}
		if fr := fresh.Solve(); fr.Status != sat.Unsat {
			t.Errorf("%s: with %d imported clauses: %v, want Unsat", tc.name, len(exported), fr.Status)
		}
	}
}
