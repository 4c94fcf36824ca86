package sat

import (
	"testing"
	"testing/quick"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// rng is a small deterministic generator (xorshift64*) so property tests
// are reproducible without package math/rand.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomFormula builds a k-SAT-style formula with nVars variables and
// nClauses clauses of lengths 1..maxLen.
func randomFormula(seed uint64, nVars, nClauses, maxLen int) *cnf.Formula {
	r := rng(seed | 1)
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		n := 1 + r.intn(maxLen)
		c := make(cnf.Clause, 0, n)
		for j := 0; j < n; j++ {
			v := lits.Var(1 + r.intn(nVars))
			c = append(c, lits.MkLit(v, r.next()&1 == 0))
		}
		f.AddClause(c)
	}
	return f
}

// bruteStatus decides satisfiability by enumeration (nVars <= 20).
func bruteStatus(f *cnf.Formula) Status {
	n := f.NumVars
	assign := lits.NewAssignment(n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 1; v <= n; v++ {
			if mask&(1<<uint(v-1)) != 0 {
				assign.Set(lits.Var(v), lits.True)
			} else {
				assign.Set(lits.Var(v), lits.False)
			}
		}
		if f.Satisfied(assign) {
			return Sat
		}
	}
	return Unsat
}

// optionMatrix enumerates solver configurations that must all be correct.
func optionMatrix() []Options {
	return []Options{
		{},
		tuned(func(tu *tuning) { tu.luby = false }),
		tuned(func(tu *tuning) { tu.maxLearntFrac = 0.01 }),
		tuned(func(tu *tuning) { tu.rescoreInterval = 16 }),
	}
}

// TestPropertySolverMatchesBruteForce cross-checks the solver against
// enumeration on hundreds of small random formulas, across the whole
// option matrix, with models verified on SAT.
func TestPropertySolverMatchesBruteForce(t *testing.T) {
	opts := optionMatrix()
	for seed := uint64(1); seed <= 120; seed++ {
		nVars := 3 + int(seed%8)
		nClauses := 4 + int(3*seed%28)
		f := randomFormula(seed*0x9E3779B97F4A7C15, nVars, nClauses, 4)
		want := bruteStatus(f)
		o := opts[int(seed)%len(opts)]
		res := New(f, o).Solve()
		if res.Status != want {
			t.Fatalf("seed %d (opts %d): got %v, want %v\n%s", seed, int(seed)%len(opts), res.Status, want, f)
		}
		if res.Status == Sat {
			if err := VerifyModel(f, res.Model); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestPropertyOptionAgreement: every configuration must agree on the
// status of the same formula (they may differ in search, never in answer).
func TestPropertyOptionAgreement(t *testing.T) {
	opts := optionMatrix()
	for seed := uint64(200); seed < 240; seed++ {
		f := randomFormula(seed*0xBF58476D1CE4E5B9, 12, 60, 3)
		var first Status
		for i, o := range opts {
			res := New(f, o).Solve()
			if i == 0 {
				first = res.Status
				continue
			}
			if res.Status != first {
				t.Fatalf("seed %d: options %d disagree (%v vs %v)", seed, i, res.Status, first)
			}
		}
	}
}

// TestPropertyGuidanceNeverChangesStatus: an arbitrary guidance vector may
// reshape the search tree but must never change satisfiability.
func TestPropertyGuidanceNeverChangesStatus(t *testing.T) {
	check := func(seed uint64) bool {
		f := randomFormula(seed|1, 10, 45, 3)
		plain := New(f, Options{}).Solve()

		r := rng(seed*31 + 7)
		guid := make([]float64, f.NumVars+1)
		for i := range guid {
			guid[i] = float64(r.intn(100))
		}
		o := Options{}
		o.Guidance = guid
		guided := New(f, o).Solve()
		return plain.Status == guided.Status
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySwitchThresholdNeverChangesStatus: the dynamic fallback is a
// pure heuristic switch; correctness is independent of when it fires.
func TestPropertySwitchThresholdNeverChangesStatus(t *testing.T) {
	for seed := uint64(300); seed < 330; seed++ {
		f := randomFormula(seed*0x94D049BB133111EB, 10, 50, 3)
		want := New(f, Options{}).Solve().Status
		for _, threshold := range []int64{1, 5, 1 << 30} {
			o := Options{}
			guid := make([]float64, f.NumVars+1)
			for i := range guid {
				guid[i] = float64(i % 7)
			}
			o.Guidance = guid
			o.SwitchAfterDecisions = threshold
			res := New(f, o).Solve()
			if res.Status != want {
				t.Fatalf("seed %d threshold %d: %v != %v", seed, threshold, res.Status, want)
			}
		}
	}
}

// TestPropertyUnitImpliedFormulaEquisat: appending the unit clauses of a
// model to a satisfiable formula keeps it satisfiable; appending a
// contradictory pair makes it unsatisfiable.
func TestPropertyUnitImpliedFormulaEquisat(t *testing.T) {
	for seed := uint64(400); seed < 430; seed++ {
		f := randomFormula(seed*0xD6E8FEB86659FD93, 9, 30, 3)
		res := New(f, Options{}).Solve()
		if res.Status != Sat {
			continue
		}
		g := f.Copy()
		for v := lits.Var(1); int(v) <= f.NumVars; v++ {
			g.AddUnit(lits.MkLit(v, res.Model.Value(v) == lits.False))
		}
		if r2 := New(g, Options{}).Solve(); r2.Status != Sat {
			t.Fatalf("seed %d: formula plus its own model became %v", seed, r2.Status)
		}
		g.Add(1)
		g.Add(-1)
		if r3 := New(g, Options{}).Solve(); r3.Status != Unsat {
			t.Fatalf("seed %d: contradictory units still %v", seed, r3.Status)
		}
	}
}

// TestPropertyStatsSane: counters must be non-negative and mutually
// consistent on random runs.
func TestPropertyStatsSane(t *testing.T) {
	for seed := uint64(500); seed < 540; seed++ {
		f := randomFormula(seed*0xA0761D6478BD642F, 11, 52, 3)
		res := New(f, Options{}).Solve()
		s := res.Stats
		if s.Decisions < 0 || s.Implications < 0 || s.Conflicts < 0 || s.Learned < 0 {
			t.Fatalf("seed %d: negative counters %+v", seed, s)
		}
		if s.Learned > s.Conflicts {
			t.Fatalf("seed %d: learned %d > conflicts %d", seed, s.Learned, s.Conflicts)
		}
		if s.Deleted > s.Learned {
			t.Fatalf("seed %d: deleted %d > learned %d", seed, s.Deleted, s.Learned)
		}
		if s.LearnedLits < s.Learned { // every learned clause has >= 1 literal
			t.Fatalf("seed %d: learnedLits %d < learned %d", seed, s.LearnedLits, s.Learned)
		}
	}
}

// TestPropertyDeterministicAcrossRuns: identical input and options produce
// identical statistics (the repo's reproducibility guarantee).
func TestPropertyDeterministicAcrossRuns(t *testing.T) {
	for seed := uint64(600); seed < 620; seed++ {
		f := randomFormula(seed*0xE7037ED1A0B428DB, 12, 55, 3)
		a := New(f, Options{}).Solve()
		b := New(f, Options{}).Solve()
		if a.Status != b.Status || a.Stats.Decisions != b.Stats.Decisions ||
			a.Stats.Conflicts != b.Stats.Conflicts || a.Stats.Implications != b.Stats.Implications {
			t.Fatalf("seed %d: nondeterministic (%+v vs %+v)", seed, a.Stats, b.Stats)
		}
	}
}

// TestPropertyXorChainUnsat exercises long implication chains: encode
// x1 ⊕ x2 ⊕ ... ⊕ xn = 1 together with all xi = 0; must be UNSAT and the
// empty-ish search must stay conflict-light under guidance.
func TestPropertyXorChainUnsat(t *testing.T) {
	for n := 3; n <= 12; n++ {
		f := cnf.New(2 * n)
		// t_i = t_{i-1} xor x_i, t_0 = 0 encoded by t-var indices n+1..2n.
		// Final t_n must be true while all x_i are false.
		tVar := func(i int) int { return n + i }
		for i := 1; i <= n; i++ {
			xi, ti := i, tVar(i)
			if i == 1 {
				// t_1 = x_1
				f.Add(-ti, xi)
				f.Add(ti, -xi)
				continue
			}
			tp := tVar(i - 1)
			// ti = tp xor xi (4 clauses)
			f.Add(-ti, tp, xi)
			f.Add(-ti, -tp, -xi)
			f.Add(ti, -tp, xi)
			f.Add(ti, tp, -xi)
		}
		f.Add(tVar(n))
		for i := 1; i <= n; i++ {
			f.Add(-i)
		}
		res := New(f, Options{}).Solve()
		if res.Status != Unsat {
			t.Fatalf("n=%d: xor chain with zero inputs must be UNSAT, got %v", n, res.Status)
		}
		if res.Stats.Decisions != 0 {
			t.Fatalf("n=%d: refutation should be pure BCP, used %d decisions", n, res.Stats.Decisions)
		}
	}
}

// TestPropertyMaxConflictsMonotone: a run given a larger conflict budget
// never goes from an answer back to Unknown.
func TestPropertyMaxConflictsMonotone(t *testing.T) {
	for seed := uint64(700); seed < 715; seed++ {
		f := randomFormula(seed*0x8EBC6AF09C88C6E3, 13, 62, 3)
		small := Options{}
		small.MaxConflicts = 2
		big := Options{}
		big.MaxConflicts = 1 << 40
		rs := New(f, small).Solve()
		rb := New(f, big).Solve()
		if rs.Status != Unknown && rs.Status != rb.Status {
			t.Fatalf("seed %d: budgeted answer %v contradicts full answer %v", seed, rs.Status, rb.Status)
		}
		if rb.Status == Unknown {
			t.Fatalf("seed %d: full budget returned Unknown", seed)
		}
	}
}

// checkTruthTable asserts what every reader of s.vals relies on: the table
// covers exactly the solver's literals, a literal and its complement read
// opposite values, and a variable reads non-zero exactly when it is on the
// trail, the trail's literal being the true one.
func checkTruthTable(t *testing.T, s *Solver, when string) {
	t.Helper()
	if len(s.vals) != 2*s.nVars+2 {
		t.Fatalf("%s: table of %d entries for %d variables, want %d", when, len(s.vals), s.nVars, 2*s.nVars+2)
	}
	if s.vals[0] != 0 || s.vals[1] != 0 {
		t.Fatalf("%s: the undefined variable reads %d/%d", when, s.vals[0], s.vals[1])
	}
	onTrail := make([]bool, s.nVars+1)
	for _, l := range s.trail {
		if s.vals[l.Index()] != 1 {
			t.Fatalf("%s: %v is on the trail and reads %d", when, l, s.vals[l.Index()])
		}
		onTrail[l.Var()] = true
	}
	for v := lits.Var(1); int(v) <= s.nVars; v++ {
		pos, neg := s.vals[lits.PosLit(v).Index()], s.vals[lits.NegLit(v).Index()]
		if pos != -neg || pos < -1 || pos > 1 {
			t.Fatalf("%s: %v reads %d, its complement %d", when, v, pos, neg)
		}
		if (pos != 0) != onTrail[v] {
			t.Fatalf("%s: %v reads %d, on the trail: %v", when, v, pos, onTrail[v])
		}
	}
}

// TestPropertyTruthTableFollowsTrail drives a live solver through random
// interleavings of AddVars, AddClause and SolveAssuming — over
// the whole option matrix, so with restarts, database reduction and phase
// saving in play — and checks the truth table after every call, every answer
// against enumeration and every model against the clauses and assumptions
// it was asked under.
func TestPropertyTruthTableFollowsTrail(t *testing.T) {
	opts := optionMatrix()
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng(seed*0xC2B2AE3D27D4EB4F | 1)
		nVars := 3 + r.intn(4)
		f := randomFormula(uint64(r.next()), nVars, 2+r.intn(6), 3)
		s := New(f, opts[int(seed)%len(opts)]) // f goes on to hold everything s is given
		checkTruthTable(t, s, "after New")

		randomLits := func(n int) []lits.Lit {
			ls := make([]lits.Lit, n)
			for i := range ls {
				ls[i] = lits.MkLit(lits.Var(1+r.intn(nVars)), r.next()&1 == 0)
			}
			return ls
		}
		for step := 0; step < 40; step++ {
			switch op := r.intn(8); {
			case op == 0 && nVars < 12:
				nVars += 1 + r.intn(2)
				s.AddVars(nVars)
				f.NumVars = nVars
				checkTruthTable(t, s, "after AddVars")
			case op <= 3:
				c := cnf.Clause(randomLits(1 + r.intn(3)))
				s.AddClause(c)
				f.AddClause(c)
				checkTruthTable(t, s, "after AddClause")
			default:
				assumps := randomLits(r.intn(3))
				asked := f.Copy()
				for _, a := range assumps {
					asked.AddUnit(a)
				}
				res := s.SolveAssuming(assumps)
				checkTruthTable(t, s, "after SolveAssuming")
				if want := bruteStatus(asked); res.Status != want {
					t.Fatalf("seed %d step %d: %v under %v, want %v\n%s", seed, step, res.Status, assumps, want, f)
				}
				if res.Status == Sat {
					if err := VerifyModel(asked, res.Model); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
				}
			}
		}
	}
}
