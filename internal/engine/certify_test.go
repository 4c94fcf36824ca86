package engine_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// flipRecorder hands a recorder what a corrupt solver would: every learnt
// clause with its first literal flipped. The search is the solver's own
// and does not change; only the proof on record does.
type flipRecorder struct{ sat.ProofRecorder }

func (r flipRecorder) RecordLearned(id sat.ClauseID, literals []lits.Lit, antecedents []sat.ClauseID) {
	flipped := slices.Clone(literals)
	flipped[0] = flipped[0].Neg()
	r.ProofRecorder.RecordLearned(id, flipped, antecedents)
}

// mutantExecutor runs every fresh race in process with each attempt's
// recorder behind a flipRecorder.
type mutantExecutor struct{ engine.LocalExecutor }

func (e mutantExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	mutated := slices.Clone(attempts)
	for i := range mutated {
		if rec := mutated[i].Opts.Recorder; rec != nil {
			mutated[i].Opts.Recorder = flipRecorder{rec}
		}
	}
	return e.LocalExecutor.Race(q, f, mutated, jobs, stop)
}

// elsewhereExecutor runs every fresh race on solvers of its own with no
// recorder, as a remote worker does: its UNSAT winners leave no proof in
// the session's recorders.
type elsewhereExecutor struct{ engine.LocalExecutor }

func (e elsewhereExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	own := slices.Clone(attempts)
	for i := range own {
		own[i].Opts.Recorder, own[i].Solver = nil, nil
	}
	return e.LocalExecutor.Race(q, f, own, jobs, stop)
}

// TestCertifyRejectsMutant: on a scratch shape under WithCertify, a check
// whose recorders were handed corrupt learnt clauses fails, and so does one
// whose UNSAT depths were won where no recorder saw the proof; the same
// check with the proofs as the solver made them certifies every depth and
// keeps the verdict.
func TestCertifyRejectsMutant(t *testing.T) {
	m, ok := bench.ByName("mix_w5")
	if !ok {
		t.Fatal("model mix_w5 missing")
	}
	for _, st := range []core.Strategy{core.OrderDynamic, core.OrderVSIDS} {
		opts := []engine.Option{engine.WithBudgets(6, 0), engine.WithOrdering(st), engine.WithCertify()}
		if res := checkModel(t, m, opts...); res.Verdict != engine.Holds {
			t.Fatalf("%v: unmutated run %v@%d, want holds", st, res.Verdict, res.K)
		}
		for name, ex := range map[string]engine.Executor{
			"flipped literal": mutantExecutor{},
			"no proof":        elsewhereExecutor{},
		} {
			sess, err := engine.New(m.Build(), 0, append(opts, engine.WithExecutor(ex))...)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sess.Check(context.Background())
			if err == nil || !strings.Contains(err.Error(), "not certified") {
				t.Errorf("%v, %s: Check returned %v, want a certification failure", st, name, err)
			}
		}
		// Without WithCertify nothing is checked: a remote win folds no core.
		sess, err := engine.New(m.Build(), 0, engine.WithBudgets(6, 0), engine.WithOrdering(st), engine.WithExecutor(elsewhereExecutor{}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Check(context.Background()); err != nil {
			t.Errorf("%v: uncertified check failed: %v", st, err)
		}
	}
}
