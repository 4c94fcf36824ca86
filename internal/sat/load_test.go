package sat_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// instance builds the length-k BMC instance of property 0 of c.
func instance(t *testing.T, c *circuit.Circuit, k int) *cnf.Formula {
	t.Helper()
	u, err := unroll.New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u.Formula(k)
}

// TestLoadMatchesNew: whatever a solver held and wherever its last search
// stopped, Load makes it the solver New builds — the same result down to
// every counter, the same proof, the same learnt clauses — and
// leaves what the solver returned before untouched. One solver takes every
// formula in turn, so it meets each one larger and smaller than what it has
// room for.
func TestLoadMatchesNew(t *testing.T) {
	// A unit, duplicate literals and a tautology among satisfiable clauses.
	messy := pigeons(6, 6)
	messy.Add(1)
	messy.Add(-2, -2, 9)
	messy.Add(4, -4, 5)
	refuted := sat.RandomFormula(5, 12, 20, 3)
	refuted.Add(3)
	refuted.Add(-3)
	refuted.AddClause(cnf.Clause{})

	add4 := instance(t, bench.AdderTwin(4, 0, 0), 3)
	guidance := make([]float64, add4.NumVars+1)
	for v := range guidance {
		guidance[v] = float64(v % 17)
	}
	guided := sat.Options{Guidance: guidance, SwitchAfterDecisions: 40}
	budget := sat.Options{MaxConflicts: 60} // stops mid-search, the trail above level 0

	added := cnf.NewClause(1, 2) // a clause every case's solvers are given

	for _, tc := range []struct {
		name  string
		g     *cnf.Formula // what the solver searched before
		gOpts sat.Options
		f     *cnf.Formula // what is loaded over it
		fOpts sat.Options
		want  sat.Status
	}{
		{"smaller unsat over larger unsat", pigeons(8, 7), sat.Options{}, pigeons(6, 5), sat.Options{}, sat.Unsat},
		{"larger unsat over smaller sat", pigeons(5, 5), sat.Options{}, pigeons(8, 7), sat.Options{}, sat.Unsat},
		{"sat over an interrupted search", pigeons(9, 8), budget, instance(t, bench.Counter(4, 9, 0, 0), 9), sat.Options{}, sat.Sat},
		{"units, duplicates and tautologies", instance(t, bench.GatedCounter(3, 5, 1, 4), 6), sat.Options{}, messy, sat.Options{}, sat.Sat},
		{"guided with a switch", messy, sat.Options{}, add4, guided, sat.Unsat},
		{"refuted by the load", add4, guided, refuted, sat.Options{}, sat.Unsat},
		{"an instance over a refuted load", refuted, sat.Options{}, instance(t, bench.GatedCounter(3, 5, 1, 4), 8), sat.Options{}, sat.Unsat},
	} {
		// The second round finds every table large enough; the third loads
		// into a solver whose every table was made for a hint larger than
		// either formula.
		s, hinted := new(sat.Solver), new(sat.Solver)
		hinted.Grow(2 * (tc.g.NumVars + tc.f.NumVars))
		for _, s := range []*sat.Solver{s, s, hinted} {
			s.Load(tc.g, tc.gOpts)
			before := s.Solve()
			kept := slices.Clone(before.Model)
			s.AddClause(added)

			fresh, loaded := tc.fOpts, tc.fOpts
			freshRec, loadedRec := core.NewRecorder(tc.f.NumClauses()), core.NewRecorder(tc.f.NumClauses())
			fresh.Recorder, loaded.Recorder = freshRec, loadedRec
			ref := sat.New(tc.f, fresh)
			want := ref.Solve()
			s.Load(tc.f, loaded)
			got := s.Solve()

			if want.Status != tc.want {
				t.Fatalf("%s: New = %v, want %v: the case is not what it says", tc.name, want.Status, tc.want)
			}
			want.Stats.SolveTime, got.Stats.SolveTime = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: loaded solver returned\n%+v\na new one\n%+v", tc.name, got, want)
			}
			lifetime, refLifetime := s.Stats(), ref.Stats()
			lifetime.SolveTime, refLifetime.SolveTime = 0, 0
			if lifetime != refLifetime {
				t.Errorf("%s: lifetime stats %+v, a new solver's %+v", tc.name, lifetime, refLifetime)
			}
			if gotCore, wantCore := loadedRec.Core(), freshRec.Core(); !slices.Equal(gotCore, wantCore) {
				t.Errorf("%s: core of %d clauses, a new solver's has %d", tc.name, len(gotCore), len(wantCore))
			}
			if gotL, wantL := s.LearntClauses(), ref.LearntClauses(); !reflect.DeepEqual(gotL, wantL) {
				t.Errorf("%s: holds %d learnt clauses, a new solver %d, or different ones", tc.name, len(gotL), len(wantL))
			}
			if !slices.Equal(before.Model, kept) {
				t.Errorf("%s: the load rewrote the model the solver had returned", tc.name)
			}
			// The clause IDs go on from the same place.
			if gotID, wantID := s.AddClause(added), ref.AddClause(added); gotID != wantID {
				t.Errorf("%s: a clause added after the load gets ID %d, in a new solver %d", tc.name, gotID, wantID)
			}
		}
	}
}

// guarded returns f with every clause widened by ¬a, where a is a variable
// of its own, and a: assuming a makes f's refutation a failed assumption.
func guarded(f *cnf.Formula) (*cnf.Formula, lits.Lit) {
	a := lits.PosLit(lits.Var(f.NumVars + 1))
	g := cnf.New(f.NumVars + 1)
	for _, c := range f.Clauses {
		g.AddClause(append(slices.Clone(c), a.Neg()))
	}
	return g, a
}

// TestSteadyStateAllocatesNothing is the solver's allocation budget: a
// solver that has searched a formula, loaded with it again and searched
// again allocates nothing. Its clause arena and its watch store reuse the
// pages the first search made, and every table and scratch buffer is kept:
// the search is the same, so it needs no room the first one did not. The
// budget holds with a recorder attached (reloaded with the solver, as a
// scratch depth does), under static guidance and under guidance that
// switches off, and through a failed assumption, whose one allocation is
// the FailedAssumptions slice the caller is handed. The runs restart,
// delete learnt clauses and compact, so every per-conflict path is in the
// count.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	add4 := instance(t, bench.AdderTwin(4, 0, 0), 6)
	php := pigeons(8, 7)
	gphp, a := guarded(php)
	guidance := func(f *cnf.Formula) []float64 {
		g := make([]float64, f.NumVars+1)
		for v := range g {
			g[v] = float64(v % 17)
		}
		return g
	}
	for _, tc := range []struct {
		name   string
		f      *cnf.Formula
		opts   sat.Options
		record bool
		assume []lits.Lit
		allocs float64
	}{
		{"add_w4 depth 6", add4, sat.Options{}, false, nil, 0},
		{"PHP(8,7)", php, sat.Options{}, false, nil, 0},
		{"add_w4 depth 6, recorded", add4, sat.Options{}, true, nil, 0},
		{"PHP(8,7), recorded", php, sat.Options{}, true, nil, 0},
		{"add_w4 depth 6, static guidance", add4, sat.Options{Guidance: guidance(add4)}, true, nil, 0},
		{"PHP(8,7), static guidance", php, sat.Options{Guidance: guidance(php)}, true, nil, 0},
		{"add_w4 depth 6, switched guidance", add4, sat.Options{Guidance: guidance(add4), SwitchAfterDecisions: 40}, true, nil, 0},
		{"PHP(8,7), switched guidance", php, sat.Options{Guidance: guidance(php), SwitchAfterDecisions: 40}, true, nil, 0},
		{"PHP(8,7) under a failed assumption", gphp, sat.Options{}, false, []lits.Lit{a}, 1},
		{"PHP(8,7) under a failed assumption, recorded", gphp, sat.Options{}, true, []lits.Lit{a}, 1},
	} {
		opts := tc.opts
		var rec *core.Recorder
		if tc.record {
			rec = core.NewRecorder(tc.f.NumClauses())
			opts.Recorder = rec
		}
		s := sat.New(tc.f, opts)
		first := s.SolveAssuming(tc.assume)
		if first.Status != sat.Unsat {
			t.Fatalf("%s: %v, want Unsat", tc.name, first.Status)
		}
		for run := 1; run <= 3; run++ {
			var again sat.Result
			// One run, after one to warm up: the count is exact.
			allocs := testing.AllocsPerRun(1, func() {
				if rec != nil {
					rec.Reload(tc.f.NumClauses())
				}
				s.Load(tc.f, opts)
				again = s.SolveAssuming(tc.assume)
			})
			if again.Stats.Conflicts != first.Stats.Conflicts || again.Status != first.Status {
				t.Fatalf("%s: reloaded, %v after %d conflicts; first %v after %d",
					tc.name, again.Status, again.Stats.Conflicts, first.Status, first.Stats.Conflicts)
			}
			if allocs != tc.allocs {
				t.Errorf("%s: reloading and searching again (run %d) allocated %.0f times, want %.0f", tc.name, run, allocs, tc.allocs)
			}
		}
		// What the budget covers: the search restarted, reduced its learnt
		// clauses and compacted the arena (so a recorder forgot), switched
		// where it was told to and failed the assumption where there was one.
		st := first.Stats
		if st.Restarts == 0 || st.Deleted == 0 || s.Compactions() == 0 {
			t.Errorf("%s: %d restarts, %d learnt clauses deleted, %d compactions; the budget wants all three",
				tc.name, st.Restarts, st.Deleted, s.Compactions())
		}
		if switches := opts.SwitchAfterDecisions > 0; st.GuidanceSwitched != switches {
			t.Errorf("%s: guidance switched = %v, want %v", tc.name, st.GuidanceSwitched, switches)
		}
		if !slices.Equal(first.FailedAssumptions, tc.assume) {
			t.Errorf("%s: failed assumptions %v, want %v", tc.name, first.FailedAssumptions, tc.assume)
		}
	}
}
