package sat

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/cnf"
	"repro/internal/lits"
)

func solve(t *testing.T, f *cnf.Formula) Result {
	t.Helper()
	res := New(f, Options{}).Solve()
	if res.Status == Sat {
		if err := VerifyModel(f, res.Model); err != nil {
			t.Fatalf("model verification failed: %v", err)
		}
	}
	return res
}

// tuned returns Options whose solver searches with the tuning constants as
// edit changes them.
func tuned(edit func(*tuning)) Options {
	tu := defaultTuning
	edit(&tu)
	return Options{tune: &tu}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	res := solve(t, cnf.New(3))
	if res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestSingleUnit(t *testing.T) {
	f := cnf.New(1)
	f.Add(-1)
	res := solve(t, f)
	if res.Status != Sat || res.Model.Value(1) != lits.False {
		t.Fatalf("status=%v model=%v", res.Status, res.Model)
	}
}

func TestConflictingUnits(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	f.Add(-1)
	if res := solve(t, f); res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	f.AddClause(cnf.Clause{})
	if res := solve(t, f); res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestPropagationChain(t *testing.T) {
	// x1, x1->x2, x2->x3, ..., x9->x10: pure BCP, zero decisions needed
	// beyond possibly none.
	f := cnf.New(10)
	f.Add(1)
	for i := 1; i < 10; i++ {
		f.Add(-i, i+1)
	}
	res := solve(t, f)
	if res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	for v := lits.Var(1); v <= 10; v++ {
		if res.Model.Value(v) != lits.True {
			t.Errorf("x%d should be true", v)
		}
	}
	if res.Stats.Implications < 10 {
		t.Errorf("expected >=10 implications, got %d", res.Stats.Implications)
	}
}

func TestUnsatChain(t *testing.T) {
	// x1, chain to x5, and ¬x5: unsat via pure level-0 propagation.
	f := cnf.New(5)
	f.Add(1)
	for i := 1; i < 5; i++ {
		f.Add(-i, i+1)
	}
	f.Add(-5)
	if res := solve(t, f); res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestTautologyIgnored(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, -1)
	f.Add(2)
	res := solve(t, f)
	if res.Status != Sat || res.Model.Value(2) != lits.True {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestDuplicateLiteralsInClause(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 1, 2, 2)
	f.Add(-1)
	f.Add(-2, -1)
	res := solve(t, f)
	if res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Model.Value(2) != lits.True {
		t.Errorf("x2 must be true")
	}
}

// pigeonhole builds PHP(p, h): p pigeons into h holes, unsat when p > h.
func pigeonhole(p, h int) *cnf.Formula {
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

func TestPigeonholeUnsat(t *testing.T) {
	for h := 2; h <= 5; h++ {
		if res := solve(t, pigeonhole(h+1, h)); res.Status != Unsat {
			t.Fatalf("PHP(%d,%d): status=%v", h+1, h, res.Status)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	if res := solve(t, pigeonhole(4, 4)); res.Status != Sat {
		t.Fatalf("PHP(4,4): status=%v", res.Status)
	}
}

// randomCNF generates a random k-SAT formula.
func randomCNF(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			v := lits.Var(rng.Intn(nVars) + 1)
			c = append(c, lits.MkLit(v, rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}
	return f
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := rng.Intn(10) + 2
		nClauses := rng.Intn(5*nVars) + 1
		f := randomCNF(rng, nVars, nClauses, 3)
		want, _, err := bruteforce.Solve(f)
		if err != nil {
			t.Fatal(err)
		}
		res := solve(t, f)
		got := res.Status == Sat
		if res.Status == Unknown {
			t.Fatalf("iter %d: unexpected Unknown", iter)
		}
		if got != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v\n%s", iter, res.Status, want, cnf.DimacsString(f))
		}
	}
}

func TestRandomHardRatio(t *testing.T) {
	// Clause/variable ratio 4.26 is the hard region for random 3-SAT;
	// exercise learning, restarts, and DB reduction on a larger instance.
	rng := rand.New(rand.NewSource(7))
	f := randomCNF(rng, 60, 256, 3)
	res := solve(t, f)
	if res.Status == Unknown {
		t.Fatalf("should be decided")
	}
	want, _, err := bruteforce.Solve(f)
	if err == nil {
		if (res.Status == Sat) != want {
			t.Fatalf("disagrees with brute force")
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomCNF(rng, 40, 170, 3)
	r1 := New(f, Options{}).Solve()
	r2 := New(f, Options{}).Solve()
	if r1.Status != r2.Status ||
		r1.Stats.Decisions != r2.Stats.Decisions ||
		r1.Stats.Conflicts != r2.Stats.Conflicts ||
		r1.Stats.Implications != r2.Stats.Implications {
		t.Fatalf("non-deterministic: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestConflictBudget(t *testing.T) {
	opts := Options{}
	opts.MaxConflicts = 3
	res := New(pigeonhole(7, 6), opts).Solve()
	if res.Status != Unknown {
		t.Fatalf("expected Unknown under tiny conflict budget, got %v", res.Status)
	}
	if res.Stats.Conflicts > 3 {
		t.Errorf("budget exceeded: %d conflicts", res.Stats.Conflicts)
	}
}

func TestStatsPopulated(t *testing.T) {
	res := solve(t, pigeonhole(5, 4))
	st := res.Stats
	if st.Conflicts == 0 || st.Decisions == 0 || st.Implications == 0 {
		t.Errorf("expected nonzero search stats: %+v", st)
	}
	if st.Learned == 0 {
		t.Errorf("expected learned clauses")
	}
	if st.SolveTime <= 0 {
		t.Errorf("expected positive solve time")
	}
}

func TestGuidanceDrivesFirstDecision(t *testing.T) {
	// Two independent satisfiable parts; guidance on x4 forces the first
	// decision to x4 even though VSIDS scores favor x1 (more occurrences).
	f := cnf.New(4)
	f.Add(1, 2)
	f.Add(1, 3)
	f.Add(1, -2)
	f.Add(4, 2)
	guid := make([]float64, 5)
	guid[4] = 10
	s := New(f, Options{Guidance: guid})
	l := s.pickBranch()
	if l.Var() != 4 {
		t.Fatalf("first decision should be x4, got %v", l)
	}
}

func TestGuidanceTiebreakByChaScore(t *testing.T) {
	// Equal guidance: cha_score (occurrence counts) must break the tie.
	f := cnf.New(3)
	f.Add(2, 3)
	f.Add(2, -3)
	f.Add(2, 1)
	guid := make([]float64, 4) // all zero: tie everywhere
	opts := Options{}
	opts.Guidance = guid
	s := New(f, opts)
	l := s.pickBranch()
	if l.Var() != 2 {
		t.Fatalf("cha_score tiebreak should pick x2 (3 occurrences), got %v", l)
	}
}

func TestDynamicSwitch(t *testing.T) {
	opts := Options{}
	guid := make([]float64, 7*6+1)
	for i := range guid {
		guid[i] = 1 // uninformative guidance
	}
	opts.Guidance = guid
	opts.SwitchAfterDecisions = 5
	res := New(pigeonhole(7, 6), opts).Solve()
	if res.Status != Unsat {
		t.Fatalf("PHP(7,6) must be unsat, got %v", res.Status)
	}
	if !res.Stats.GuidanceSwitched {
		t.Errorf("dynamic switch should have fired")
	}
	if res.Stats.SwitchDecision <= 5 && res.Stats.SwitchDecision != 6 {
		t.Logf("switch decision = %d", res.Stats.SwitchDecision)
	}
}

func TestNoSwitchWhenThresholdZero(t *testing.T) {
	opts := Options{}
	guid := make([]float64, 5*4+1)
	opts.Guidance = guid
	res := New(pigeonhole(5, 4), opts).Solve()
	if res.Stats.GuidanceSwitched {
		t.Errorf("switch must not fire with threshold 0")
	}
}

// TestReduceDBTriggersAndStaysCorrect: PHP(8,7) learns past the 1000-clause
// floor of the learnt limit, so the database is reduced, and the answer
// stays right.
func TestReduceDBTriggersAndStaysCorrect(t *testing.T) {
	res := New(pigeonhole(8, 7), Options{}).Solve()
	if res.Status != Unsat {
		t.Fatalf("PHP(8,7) must be unsat, got %v", res.Status)
	}
	if res.Stats.Deleted == 0 {
		t.Fatalf("no learnt clause was deleted (%d learned): the test no longer reduces the database", res.Stats.Learned)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Errorf("luby(%d)=%d, want %d", i, got, w)
		}
	}
}

func TestSortInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(100)
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(rng.Intn(20) - 10)
		}
		sortInt64(a)
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				t.Fatalf("not sorted: %v", a)
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Errorf("status strings wrong")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Decisions: 1, Conflicts: 2, MaxLevel: 3, GuidedDecisions: 1}
	b := Stats{Decisions: 10, Conflicts: 20, MaxLevel: 2, GuidanceSwitched: true, GuidedDecisions: 4}
	a.Add(b)
	if a.Decisions != 11 || a.Conflicts != 22 || a.MaxLevel != 3 || !a.GuidanceSwitched || a.GuidedDecisions != 5 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestVerifyModelRejectsBadModel(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	bad := lits.NewAssignment(1)
	bad.Set(1, lits.False)
	if err := VerifyModel(f, bad); err == nil {
		t.Errorf("expected verification failure")
	}
}
