package sat

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// ranksAbove is the decision rule written out: a ranks above b on guidance
// (while it is active, higher first), then cha_score (higher first), then
// literal index (lower first).
func ranksAbove(s *Solver, a, b lits.Lit) bool {
	if s.guidActive {
		if ga, gb := s.guid[a.Var()], s.guid[b.Var()]; ga != gb {
			return ga > gb
		}
	}
	if ca, cb := s.chaScore[a.Index()], s.chaScore[b.Index()]; ca != cb {
		return ca > cb
	}
	return a < b
}

// argmax is the unassigned literal the rule ranks first, found by looking
// at every one; LitUndef when every variable is assigned.
func argmax(s *Solver) lits.Lit {
	best := lits.LitUndef
	for v := lits.Var(1); int(v) <= s.nVars; v++ {
		for _, l := range [2]lits.Lit{lits.PosLit(v), lits.NegLit(v)} {
			if s.vals[l.Index()] == 0 && (best == lits.LitUndef || ranksAbove(s, l, best)) {
				best = l
			}
		}
	}
	return best
}

// stepper drives a solver through the search loop's own pieces —
// propagate, analyze, cancelUntil, addLearned, rescore, pickBranch — and
// checks every decision against argmax before taking it, and the heap's
// invariants after every step.
type stepper struct {
	t         *testing.T
	name      string
	s         *Solver
	conflicts int
	rescores  int
	decisions int
	unsat     bool
}

// run takes n more decisions, or stops early when the clauses are refuted
// at level 0. Every rescoreEvery conflicts it rescores, as solve does every
// rescoreInterval; every restartEvery decisions it restarts. A model ends
// nothing: the stepper backtracks to level 0 and goes on deciding.
func (st *stepper) run(phase string, n, rescoreEvery, restartEvery int) {
	st.t.Helper()
	s := st.s
	for taken := 0; taken < n && !st.unsat; {
		st.checkHeap(phase)
		if confl := s.propagate(); confl != crefUndef {
			if s.decisionLevel() == 0 {
				st.unsat = true
				return
			}
			learnt, btLevel, ants := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.addLearned(learnt, ants)
			if st.conflicts++; st.conflicts%rescoreEvery == 0 {
				s.rescore()
				st.rescores++
			}
			continue
		}
		want := argmax(s)
		got := s.pickBranch()
		if got != want {
			st.t.Fatalf("%s, %s: decision %d picks %v, the rule ranks %v first (guidance active %v)",
				st.name, phase, st.decisions, got, want, s.guidActive)
		}
		if got == lits.LitUndef {
			s.cancelUntil(0)
			continue
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(got, crefUndef)
		taken++
		if st.decisions++; st.decisions%restartEvery == 0 {
			s.cancelUntil(0)
		}
	}
	st.checkHeap(phase)
}

// checkHeap checks that the decision heap holds at most one entry per
// variable and is otherwise what CheckHeap asks: a position index that
// agrees with it both ways, heap order, and every unassigned variable
// queued, for a variable absent from the heap could never be decided.
func (st *stepper) checkHeap(phase string) {
	st.t.Helper()
	s := st.s
	if len(s.heap.heap) > s.nVars {
		st.t.Fatalf("%s, %s: %d heap entries for %d variables", st.name, phase, len(s.heap.heap), s.nVars)
	}
	if err := s.CheckHeap(); err != nil {
		st.t.Fatalf("%s, %s: %v", st.name, phase, err)
	}
}

// TestDecisionIsHeapArgmax: every decision the solver takes is the best
// unassigned literal under (guidance desc, cha_score desc, index asc) —
// the order varHeap keeps, one variable at a time — through conflicts and
// backjumps, rescores, restarts, variables and clauses added to the live
// solver and clauses imported into it (install raises keys), the dynamic
// switch, new guidance, and Load into a used solver's storage, larger then
// smaller. Ties in guidance and in
// cha_score are frequent: guidance takes three values, and cha_score
// starts at occurrence counts.
func TestDecisionIsHeapArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	guidance := func(n int) []float64 {
		g := make([]float64, n+1)
		for v := 1; v <= n; v++ {
			g[v] = float64(rng.Intn(3))
		}
		return g
	}
	formulas := []struct {
		name string
		f    *cnf.Formula
	}{
		{"random 3-sat", randomCNF(rng, 120, 500, 3)},
		{"php 7", pigeonhole(8, 7)},
		{"add_w4 d6", unrolled(t, bench.AdderTwin(4, 0, 0), 6)},
	}
	for _, tc := range formulas {
		name, f := tc.name, tc.f
		st := &stepper{t: t, name: name, s: New(f, Options{Guidance: guidance(f.NumVars)})}
		st.run("guided", 300, 7, 97)

		// A frame's worth of new variables and clauses over old and new.
		more := f.NumVars + 30
		st.s.AddVars(more)
		for i := 0; i < 40 && !st.unsat; i++ {
			c := cnf.Clause{
				lits.MkLit(lits.Var(f.NumVars+1+rng.Intn(30)), rng.Intn(2) == 0),
				lits.MkLit(lits.Var(1+rng.Intn(more)), rng.Intn(2) == 0),
				lits.MkLit(lits.Var(1+rng.Intn(more)), rng.Intn(2) == 0),
			}
			st.s.AddClause(c)
		}
		st.unsat = st.unsat || st.s.status == Unsat
		st.run("after AddVars/AddClause", 300, 7, 97)

		// Clauses from a peer, over variables old and new.
		for i := 0; i < 40 && !st.unsat; i++ {
			c := cnf.Clause{
				lits.MkLit(lits.Var(1+rng.Intn(more)), rng.Intn(2) == 0),
				lits.MkLit(lits.Var(1+rng.Intn(more)), rng.Intn(2) == 0),
				lits.MkLit(lits.Var(1+rng.Intn(more)), rng.Intn(2) == 0),
			}
			st.s.ImportClause(c)
		}
		st.unsat = st.unsat || st.s.status == Unsat
		st.run("after ImportClause", 300, 7, 97)

		st.s.switchGuidance()
		st.run("after the dynamic switch", 300, 5, 89)

		st.s.SetGuidance(guidance(more), 0)
		st.run("under new guidance", 300, 11, 101)

		if st.decisions < 300 || st.rescores == 0 {
			t.Errorf("%s: %d decisions checked, %d rescores", st.name, st.decisions, st.rescores)
		}
		t.Logf("%s: %d decisions checked, %d conflicts, %d rescores, refuted %v", st.name, st.decisions, st.conflicts, st.rescores, st.unsat)
	}

	// One solver's storage, used on the largest formula, then loaded with
	// each of the others in decreasing size: the heap and its index must
	// not carry entries past the new variable count.
	opts := Options{}
	opts.Guidance = guidance(formulas[2].f.NumVars)
	s := New(formulas[2].f, opts)
	(&stepper{t: t, name: "used", s: s}).run("guided", 300, 7, 97)
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{formulas[0], formulas[1]} {
		opts.Guidance = guidance(tc.f.NumVars)
		s.Load(tc.f, opts)
		st := &stepper{t: t, name: tc.name + " (loaded over a used solver)", s: s}
		st.run("guided", 300, 7, 97)
		s.switchGuidance()
		st.run("after the dynamic switch", 300, 5, 89)
		if st.decisions < 300 {
			t.Errorf("%s: %d decisions checked", st.name, st.decisions)
		}
	}
}
