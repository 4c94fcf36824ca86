package sat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/cnf"
	"repro/internal/lits"
)

func TestSolveAssumingSat(t *testing.T) {
	f := cnf.New(3)
	f.Add(1, 2)
	f.Add(-2, 3)
	s := New(f, Options{})
	res := s.SolveAssuming([]lits.Lit{lits.NegLit(1)})
	if res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Model.Value(1) != lits.False {
		t.Errorf("assumption ¬x1 not honored: %v", res.Model.Value(1))
	}
	if err := VerifyModel(f, res.Model); err != nil {
		t.Fatal(err)
	}
}

func TestSolveAssumingUnsatIsNotSticky(t *testing.T) {
	// x1 → x2 → x3; assuming x1 ∧ ¬x3 is inconsistent, but the clauses
	// alone are satisfiable, so the solver must stay reusable.
	f := cnf.New(3)
	f.Add(-1, 2)
	f.Add(-2, 3)
	s := New(f, Options{})

	res := s.SolveAssuming([]lits.Lit{lits.PosLit(1), lits.NegLit(3)})
	if res.Status != Unsat {
		t.Fatalf("status=%v, want UNSAT under contradictory assumptions", res.Status)
	}
	if len(res.FailedAssumptions) == 0 {
		t.Fatalf("missing failed assumptions")
	}

	res = s.Solve()
	if res.Status != Sat {
		t.Fatalf("after assumption-unsat: status=%v, want SAT", res.Status)
	}

	res = s.SolveAssuming([]lits.Lit{lits.PosLit(1)})
	if res.Status != Sat || res.Model.Value(3) != lits.True {
		t.Fatalf("x1 assumption must imply x3: status=%v model=%v", res.Status, res.Model)
	}
}

func TestFailedAssumptionsSubset(t *testing.T) {
	// x1 → x2 → x3. Assume a free variable x5, then x1, then ¬x3: only
	// {x1, ¬x3} are inconsistent; x5 must not appear in the failed set.
	f := cnf.New(5)
	f.Add(-1, 2)
	f.Add(-2, 3)
	s := New(f, Options{})
	res := s.SolveAssuming([]lits.Lit{lits.PosLit(5), lits.PosLit(1), lits.NegLit(3)})
	if res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	got := map[lits.Lit]bool{}
	for _, l := range res.FailedAssumptions {
		got[l] = true
	}
	if !got[lits.NegLit(3)] || !got[lits.PosLit(1)] {
		t.Errorf("failed set %v must contain x1 and ¬x3", res.FailedAssumptions)
	}
	if got[lits.PosLit(5)] {
		t.Errorf("free assumption x5 leaked into failed set %v", res.FailedAssumptions)
	}
}

func TestFailedAssumptionContradictsLevel0(t *testing.T) {
	// Unit clause ¬x1: assuming x1 fails by itself at level 0.
	f := cnf.New(2)
	f.Add(-1)
	s := New(f, Options{})
	res := s.SolveAssuming([]lits.Lit{lits.PosLit(1)})
	if res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	if len(res.FailedAssumptions) != 1 || res.FailedAssumptions[0] != lits.PosLit(1) {
		t.Errorf("failed=%v, want [x1]", res.FailedAssumptions)
	}
	if res := s.Solve(); res.Status != Sat {
		t.Fatalf("formula alone must stay SAT, got %v", res.Status)
	}
}

func TestContradictoryAssumptionPair(t *testing.T) {
	s := New(cnf.New(2), Options{})
	res := s.SolveAssuming([]lits.Lit{lits.PosLit(1), lits.NegLit(1)})
	if res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	got := map[lits.Lit]bool{}
	for _, l := range res.FailedAssumptions {
		got[l] = true
	}
	if !got[lits.PosLit(1)] || !got[lits.NegLit(1)] {
		t.Errorf("failed=%v, want both x1 and ¬x1", res.FailedAssumptions)
	}
}

func TestAddClauseGrowsSolver(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	s := New(f, Options{})
	// Clause over variables beyond the construction-time count.
	s.AddClause(cnf.NewClause(-1, 5))
	s.AddClause(cnf.NewClause(-5, 6))
	if s.NumVars() != 6 {
		t.Fatalf("NumVars=%d, want 6", s.NumVars())
	}
	res := s.SolveAssuming([]lits.Lit{lits.PosLit(1)})
	if res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Model.Value(5) != lits.True || res.Model.Value(6) != lits.True {
		t.Errorf("x1 must imply x5 and x6: %v", res.Model)
	}
}

func TestAddClauseUnitConflictIsSticky(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	s := New(f, Options{})
	if res := s.Solve(); res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	s.AddClause(cnf.NewClause(-1))
	if res := s.Solve(); res.Status != Unsat {
		t.Fatalf("after contradicting unit: status=%v", res.Status)
	}
	// A formula-level UNSAT is sticky: further calls keep reporting it.
	if res := s.SolveAssuming([]lits.Lit{}); res.Status != Unsat {
		t.Fatalf("sticky unsat lost: %v", res.Status)
	}
}

func TestAddClauseSatisfiedAndFalsifiedLiterals(t *testing.T) {
	// After level-0 propagation fixes x1 true, add clauses whose literals
	// are already satisfied or falsified at level 0.
	f := cnf.New(3)
	f.Add(1)
	s := New(f, Options{})
	if res := s.Solve(); res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	s.AddClause(cnf.NewClause(1, 2))  // satisfied at level 0
	s.AddClause(cnf.NewClause(-1, 3)) // unit under level 0: forces x3
	res := s.Solve()
	if res.Status != Sat {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Model.Value(3) != lits.True {
		t.Errorf("x3 must be forced, model=%v", res.Model)
	}
}

// TestIncrementalMatchesScratch is the central equivalence property of the
// incremental interface: adding clauses in batches with solves in between
// must agree with solving the accumulated formula from scratch (verified
// against brute force for good measure).
func TestIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		nVars := rng.Intn(9) + 2
		full := randomCNF(rng, nVars, rng.Intn(4*nVars)+2, 3)
		cut := rng.Intn(full.NumClauses())

		first := cnf.New(nVars)
		for i := range cut {
			first.AddClause(full.Clause(i))
		}
		s := New(first, Options{})
		s.Solve() // warm the clause database mid-stream
		for i := cut; i < full.NumClauses(); i++ {
			s.AddClause(full.Clause(i))
		}
		res := s.Solve()

		want, _, err := bruteforce.Solve(full)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == Unknown || (res.Status == Sat) != want {
			t.Fatalf("iter %d: incremental=%v bruteforce=%v\n%s", iter, res.Status, want, cnf.DimacsString(full))
		}
		if res.Status == Sat {
			if err := VerifyModel(full, res.Model); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
}

// TestAssumptionsMatchUnits: solving under assumptions must agree with
// solving the formula extended by the assumption units from scratch.
func TestAssumptionsMatchUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 120; iter++ {
		nVars := rng.Intn(9) + 2
		f := randomCNF(rng, nVars, rng.Intn(4*nVars)+2, 3)
		var assumps []lits.Lit
		withUnits := f.Copy()
		for v := 1; v <= nVars; v++ {
			if rng.Intn(3) == 0 {
				l := lits.MkLit(lits.Var(v), rng.Intn(2) == 0)
				assumps = append(assumps, l)
				withUnits.AddUnit(l)
			}
		}
		got := New(f, Options{}).SolveAssuming(assumps)
		want, _, err := bruteforce.Solve(withUnits)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == Unknown || (got.Status == Sat) != want {
			t.Fatalf("iter %d: assuming=%v units-bruteforce=%v", iter, got.Status, want)
		}
		if got.Status == Unsat {
			// The failed subset must itself be inconsistent with the
			// formula: re-adding it as units must be unsat.
			check := f.Copy()
			for _, l := range got.FailedAssumptions {
				check.AddUnit(l)
			}
			sub, _, err := bruteforce.Solve(check)
			if err == nil && sub {
				t.Fatalf("iter %d: failed subset %v is not actually inconsistent", iter, got.FailedAssumptions)
			}
		}
	}
}

func TestPerCallStatsReset(t *testing.T) {
	f := pigeonhole(6, 5)
	s := New(f, Options{})
	r1 := s.SolveAssuming(nil)
	if r1.Status != Unsat || r1.Stats.Conflicts == 0 {
		t.Fatalf("first call: %v, %d conflicts", r1.Status, r1.Stats.Conflicts)
	}
	r2 := s.SolveAssuming(nil)
	if r2.Status != Unsat {
		t.Fatalf("second call: %v", r2.Status)
	}
	// A sticky formula-level UNSAT answers immediately: per-call stats must
	// be fresh, not carry the first call's search.
	if r2.Stats.Conflicts != 0 || r2.Stats.Decisions != 0 {
		t.Errorf("second call stats not per-call: %+v", r2.Stats)
	}
	life := s.Stats()
	if life.Conflicts != r1.Stats.Conflicts+r2.Stats.Conflicts {
		t.Errorf("lifetime conflicts %d != %d + %d", life.Conflicts, r1.Stats.Conflicts, r2.Stats.Conflicts)
	}
}

func TestIncrementalDeterminism(t *testing.T) {
	run := func() Result {
		rng := rand.New(rand.NewSource(17))
		f := randomCNF(rng, 30, 100, 3)
		s := New(f, Options{})
		s.Solve()
		extra := randomCNF(rng, 30, 30, 3)
		for _, c := range extra.Clauses {
			s.AddClause(c)
		}
		return s.SolveAssuming([]lits.Lit{lits.PosLit(1)})
	}
	r1, r2 := run(), run()
	if r1.Status != r2.Status || r1.Stats.Decisions != r2.Stats.Decisions ||
		r1.Stats.Conflicts != r2.Stats.Conflicts {
		t.Fatalf("non-deterministic: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestSetGuidanceRearmsPerCall(t *testing.T) {
	f := pigeonhole(6, 5)
	guid := make([]float64, 6*5+1)
	for i := range guid {
		guid[i] = 1
	}
	s := New(f, Options{})
	s.SetGuidance(guid, 5)
	r1 := s.SolveAssuming(nil)
	if r1.Status != Unsat || !r1.Stats.GuidanceSwitched {
		t.Fatalf("first call: %v switched=%v", r1.Status, r1.Stats.GuidanceSwitched)
	}
	// Replacing the guidance must re-arm it for the next call.
	s.SetGuidance(guid, 0)
	r2 := s.SolveAssuming(nil)
	if r2.Stats.GuidanceSwitched {
		t.Errorf("threshold 0 must never switch")
	}
}

// --- satellite regressions ---

// TestDeadlineHonoredOnDecisionPath: a decision/propagation-heavy solve
// with zero conflicts previously checked Options.Deadline only on the
// conflict path and ran to completion unboundedly. It must now abort.
func TestDeadlineHonoredOnDecisionPath(t *testing.T) {
	// 200 independent implication blocks: each needs one decision on its
	// head and then a unit-propagation chain; no conflicts ever occur.
	const blocks, width = 200, 6
	f := cnf.New(blocks * width)
	for b := 0; b < blocks; b++ {
		head := b*width + 1
		for i := 0; i < width-1; i++ {
			f.Add(-(head + i), head+i+1)
		}
	}
	opts := Options{}
	opts.Deadline = time.Now().Add(-time.Second)
	res := New(f, opts).Solve()
	if res.Status != Unknown {
		t.Fatalf("expired deadline ignored on the decision path: status=%v after %d decisions",
			res.Status, res.Stats.Decisions)
	}
	if res.Stats.Conflicts != 0 {
		t.Fatalf("test premise broken: %d conflicts occurred", res.Stats.Conflicts)
	}
	// The overshoot is bounded by the polling cadence (default 64 steps),
	// not by the instance size.
	if res.Stats.Decisions > 2*64+2 {
		t.Errorf("deadline overshoot: %d decisions before abort", res.Stats.Decisions)
	}
}

// TestStatsAddCarriesSwitchDecision: Add previously propagated
// GuidanceSwitched but dropped SwitchDecision, so aggregated totals always
// reported 0.
func TestStatsAddCarriesSwitchDecision(t *testing.T) {
	var total Stats
	total.Add(Stats{Decisions: 7})
	total.Add(Stats{Decisions: 9, GuidanceSwitched: true, SwitchDecision: 42})
	if !total.GuidanceSwitched || total.SwitchDecision != 42 {
		t.Fatalf("SwitchDecision dropped: %+v", total)
	}
	// First nonzero wins; later switches do not overwrite it.
	total.Add(Stats{GuidanceSwitched: true, SwitchDecision: 99})
	if total.SwitchDecision != 42 {
		t.Errorf("SwitchDecision overwritten: %d", total.SwitchDecision)
	}
}

// TestWithDefaultsRestartInc pins the tuning every solver runs, field by
// field, to the values the tunable options used to default to: rescore
// every 255 conflicts, Luby restarts of unit 100, a learnt limit of a
// third of the originals, at least 1000, growing by 1.1, compaction at a
// fifth of the arena garbage, a Stop/deadline poll every 64 steps and
// watch pages of up to 16 384 watchers. Restarts have no other schedule
// and decisions no budget. Minimisation has no field: it always runs,
// which PHP(8,7)'s learnt literals pin (19060 minimised, 24002 when it
// was switched off).
func TestWithDefaultsRestartInc(t *testing.T) {
	want := tuning{
		rescoreInterval: 255,
		restartFirst:    100,
		maxLearntFrac:   1.0 / 3.0,
		minLearnts:      1000,
		maxLearntInc:    1.1,
		garbageDen:      5,
		pollEvery:       64,
		watchPage:       1 << 14,
	}
	if got := (Options{}).tuning(); got != want {
		t.Errorf("tuning %+v, want %+v", got, want)
	}
	if got := New(cnf.New(1), Options{}).tune; got != want {
		t.Errorf("a new solver searches with %+v, want %+v", got, want)
	}
	res := New(pigeonhole(8, 7), Options{}).Solve()
	if res.Stats.Conflicts != 1644 || res.Stats.LearnedLits != 19060 {
		t.Errorf("PHP(8,7): %d conflicts, %d learnt literals; want 1644 and 19060 as minimised",
			res.Stats.Conflicts, res.Stats.LearnedLits)
	}
}

// TestAddVarsGrowsWatchTableAmortised: a warm solver takes one frame's
// variables per depth, so what AddVars allocates for the watch table over a
// run must be a small multiple of the table's final size. Reallocating it
// at its exact size on every call (as AddVars once did) allocates about
// depth/2 times that — 20x here. A solver told by Grow how many variables
// the run ends with moves the table once, to exactly that size, and every
// per-variable and per-literal table with it.
func TestAddVarsGrowsWatchTableAmortised(t *testing.T) {
	const frames, width = 40, 500
	for _, hinted := range []bool{false, true} {
		s := New(cnf.New(0), Options{})
		if hinted {
			s.Grow(frames * width)
		}
		allocated, moves := 0, 0
		var backing *watchList
		var reasons *cref
		for frame := 1; frame <= frames; frame++ {
			s.AddVars(width * frame)
			if first := &s.watches.lists[0]; first != backing {
				backing = first
				allocated += cap(s.watches.lists)
				moves++
			}
			if hinted && &s.reason[0] != reasons {
				if reasons != nil {
					t.Errorf("hinted: frame %d moved the reasons again", frame)
				}
				reasons = &s.reason[0]
			}
		}
		final := len(s.watches.lists)
		switch {
		case final != 2*frames*width+2:
			t.Errorf("hinted=%v: the table has %d lists after %d variables", hinted, final, frames*width)
		case !hinted && allocated > 8*final:
			t.Errorf("%d frames of %d variables allocated %d watch lists for a table of %d", frames, width, allocated, final)
		case hinted && (moves != 1 || allocated != final):
			t.Errorf("hinted for %d variables: the table moved %d times, allocating %d lists for a table of %d; want once, at its size",
				frames*width, moves, allocated, final)
		}
	}
}
