package sat_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
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
// every counter, the same proof, the same learnt clauses to export — and
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

	shared := cnf.NewClause(1, 2) // a bus clause every case's solvers are sent

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
		hinted.Grow(2*(tc.g.NumVars+tc.f.NumVars), 2*(tc.g.NumClauses()+tc.f.NumClauses()))
		for _, s := range []*sat.Solver{s, s, hinted} {
			s.Load(tc.g, tc.gOpts)
			before := s.Solve()
			kept := slices.Clone(before.Model)
			s.ImportClause(shared)

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
			if lifetime != refLifetime || s.NextClauseID() != ref.NextClauseID() {
				t.Errorf("%s: lifetime stats %+v and next ID %d, a new solver's %+v and %d",
					tc.name, lifetime, s.NextClauseID(), refLifetime, ref.NextClauseID())
			}
			if gotCore, wantCore := loadedRec.Core(), freshRec.Core(); !slices.Equal(gotCore, wantCore) {
				t.Errorf("%s: core of %d clauses, a new solver's has %d", tc.name, len(gotCore), len(wantCore))
			}
			since := sat.ClauseID(tc.f.NumClauses())
			for _, by := range [][2]int{{8, 0}, {0, 3}} { // by length, by LBD
				gotExp, wantExp := s.ExportLearned(since, by[0], by[1], 0), ref.ExportLearned(since, by[0], by[1], 0)
				if !reflect.DeepEqual(gotExp, wantExp) {
					t.Errorf("%s: exports %d learnt clauses, a new solver %d, or different ones", tc.name, len(gotExp), len(wantExp))
				}
			}
			if !slices.Equal(before.Model, kept) {
				t.Errorf("%s: the load rewrote the model the solver had returned", tc.name)
			}
			// The import filter starts empty too: what the solver took in
			// before the load is not a repeat after it.
			gotID, gotOK := s.ImportClause(shared)
			if wantID, wantOK := ref.ImportClause(shared); gotID != wantID || gotOK != wantOK {
				t.Errorf("%s: import after the load = (%d, %v), into a new solver (%d, %v)", tc.name, gotID, gotOK, wantID, wantOK)
			}
		}
	}
}
