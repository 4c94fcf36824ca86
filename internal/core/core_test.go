package core

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/proofcheck"
	"repro/internal/sat"
)

// solveWithCore runs the CDCL solver with a recorder attached and returns
// both the result and the recorder.
func solveWithCore(f *cnf.Formula, opts sat.Options) (sat.Result, *Recorder) {
	rec := NewRecorder(f.NumClauses())
	opts.Recorder = rec
	res := sat.New(f, opts).Solve()
	return res, rec
}

func TestRecorderSyntheticTraversal(t *testing.T) {
	// 4 original clauses (0..3); learned 4 <- {0,1}; learned 5 <- {4,2};
	// final <- {5}. Core must be {0,1,2}; clause 3 stays out.
	r := NewRecorder(4)
	r.RecordLearned(4, nil, []sat.ClauseID{0, 1})
	r.RecordLearned(5, nil, []sat.ClauseID{4, 2})
	r.RecordFinal([]sat.ClauseID{5})
	got := r.Core()
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("core=%v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("core=%v want %v", got, want)
		}
	}
}

func TestRecorderSharedAntecedentVisitedOnce(t *testing.T) {
	// Diamond: 3 <- {0,1}, 4 <- {0,2}, final <- {3,4,3}. All originals in
	// core despite repeated references.
	r := NewRecorder(3)
	r.RecordLearned(3, nil, []sat.ClauseID{0, 1})
	r.RecordLearned(4, nil, []sat.ClauseID{0, 2})
	r.RecordFinal([]sat.ClauseID{3, 4, 3})
	got := r.Core()
	if len(got) != 3 {
		t.Fatalf("core=%v", got)
	}
}

func TestRecorderNoProof(t *testing.T) {
	r := NewRecorder(2)
	if r.HasProof() {
		t.Errorf("fresh recorder must not have a proof")
	}
	if r.Core() != nil {
		t.Errorf("Core must be nil without a final conflict")
	}
}

func TestRecorderOutOfOrderPanics(t *testing.T) {
	// Clause IDs come from one counter and only grow; the IDs skipped on
	// the way (2..4 here) are leaves. An ID at or below a recorded one —
	// two solvers sharing a recorder, say — is a bug.
	r := NewRecorder(2)
	r.RecordLearned(5, nil, []sat.ClauseID{0, 3})
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on out-of-order learned ID")
		}
	}()
	r.RecordLearned(4, nil, []sat.ClauseID{1})
}

func TestCoreOfPropagationChainExcludesPadding(t *testing.T) {
	// Clauses 0..5 form an unsat unit-propagation chain; clauses 6..15 are
	// satisfiable padding on disjoint variables. Since the chain conflicts
	// during level-0 propagation, no conflict can ever involve the padding,
	// so the core must be exactly the chain.
	f := cnf.New(0)
	f.Add(1)
	f.Add(-1, 2)
	f.Add(-2, 3)
	f.Add(-3, 4)
	f.Add(-4, 5)
	f.Add(-5)
	for i := 0; i < 10; i++ {
		f.Add(10+i, 20+i)
	}
	res, rec := solveWithCore(f, sat.Options{})
	if res.Status != sat.Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	core := rec.Core()
	if len(core) != 6 {
		t.Fatalf("core=%v, want exactly the 6 chain clauses", core)
	}
	for i, id := range core {
		if id != i {
			t.Fatalf("core=%v", core)
		}
	}
	vars := rec.CoreVars(f)
	if len(vars) != 5 {
		t.Fatalf("core vars=%v, want x1..x5", vars)
	}
}

func TestCoreIsUnsatOnPigeonhole(t *testing.T) {
	f := pigeonhole(5, 4)
	// Add satisfiable side clauses to give the core something to exclude.
	base := f.NumVars
	for i := 1; i <= 8; i++ {
		f.Add(base+i, base+i+1)
	}
	res, rec := solveWithCore(f, sat.Options{})
	if res.Status != sat.Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	if !rec.HasProof() {
		t.Fatal("no core")
	}
	coreF := f.Subset(rec.Core())
	if coreF.NumClauses() > f.NumClauses() {
		t.Fatalf("core bigger than formula")
	}
	res2, _ := solveWithCore(coreF, sat.Options{})
	if res2.Status != sat.Unsat {
		t.Fatalf("core formula must be unsat, got %v", res2.Status)
	}
}

// TestCoreSurvivesClauseDeletion: PHP(8,7) learns past the 1000-clause
// floor of the learnt limit, so the solver deletes learned clauses and the
// recorder forgets, and the pseudo-ID CDG must still produce a valid (unsat)
// core — the point of §3.1. proofcheck replays the final conflict's cone by
// reverse unit propagation, independently of the solver, and requires its
// leaves to be the core.
func TestCoreSurvivesClauseDeletion(t *testing.T) {
	f := pigeonhole(8, 7)
	rec := &forgetting{Recorder: NewRecorderWith(f.NumClauses(), Complete)}
	res := sat.New(f, sat.Options{Recorder: rec}).Solve()
	if res.Status != sat.Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Stats.Deleted == 0 || rec.calls == 0 {
		t.Fatalf("%d of %d learned clauses deleted, %d collections: the deletion path is unexercised",
			res.Stats.Deleted, res.Stats.Learned, rec.calls)
	}
	if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err != nil {
		t.Fatalf("the proof and core do not check after %d deletions: %v", res.Stats.Deleted, err)
	}
}

func TestRandomUnsatCoresAreUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tested := 0
	for iter := 0; iter < 400 && tested < 60; iter++ {
		nVars := rng.Intn(8) + 3
		f := randomCNF(rng, nVars, 6*nVars, 3)
		want, _, err := bruteforce.Solve(f)
		if err != nil {
			t.Fatal(err)
		}
		if want {
			continue // only unsat instances are interesting here
		}
		tested++
		res, rec := solveWithCore(f, sat.Options{})
		if res.Status != sat.Unsat {
			t.Fatalf("solver disagrees with brute force")
		}
		coreF := f.Subset(rec.Core())
		coreSat, _, err := bruteforce.Solve(coreF)
		if err != nil {
			t.Fatal(err)
		}
		if coreSat {
			t.Fatalf("extracted core is satisfiable:\nformula:\n%score:\n%s",
				cnf.DimacsString(f), cnf.DimacsString(coreF))
		}
	}
	if tested < 20 {
		t.Fatalf("too few unsat instances exercised: %d", tested)
	}
}

func TestNoEventsOnSat(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	res, rec := solveWithCore(f, sat.Options{})
	if res.Status != sat.Sat {
		t.Fatalf("status=%v", res.Status)
	}
	if rec.HasProof() {
		t.Errorf("no final conflict should be recorded on SAT")
	}
}

func TestRecorderApproxBytes(t *testing.T) {
	r := NewRecorder(10)
	if r.ApproxBytes() != 0 {
		t.Errorf("fresh recorder should report 0 bytes")
	}
	r.RecordLearned(10, nil, []sat.ClauseID{1, 2, 3})
	one := r.ApproxBytes()
	if one < 3+4 {
		t.Errorf("%d bytes cannot hold three one-byte antecedent deltas and a table entry", one)
	}
	// An accounting, not an estimate: what is reported is what is held.
	// 4000 more clauses of 40 antecedents, coded in 41 or 42 bytes each,
	// fill two 64 KB chunks and part of a third, and every chunk is counted
	// whole.
	ants := make([]sat.ClauseID, 40)
	for i := 0; i < 4000; i++ {
		r.RecordLearned(sat.ClauseID(11+i), nil, ants)
	}
	held := int64(cap(r.antEnd.chunks)+cap(r.ants.chunks)) * 24
	for _, c := range r.antEnd.chunks {
		held += 4 * int64(cap(c))
	}
	for _, c := range r.ants.chunks {
		held += int64(cap(c))
	}
	if got := r.ApproxBytes(); got != held || len(r.ants.chunks) != 3 || held < 3*chunkLen {
		t.Errorf("ApproxBytes = %d with %d chunks, recorder holds %d", got, len(r.ants.chunks), held)
	}
	// Extraction scratch stays with the recorder and is counted too.
	r.RecordFinal([]sat.ClauseID{4010})
	r.Core()
	if got := r.ApproxBytes(); got <= held {
		t.Errorf("ApproxBytes = %d after an extraction, want above %d", got, held)
	}
	// A collection that reaches nothing empties the store into spare chunks,
	// which the recorder still holds: only the spare list's own headers are
	// new.
	held = r.ApproxBytes()
	r.ResetFinal()
	r.Forget(nil)
	if r.ants.n != 0 || len(r.ants.spare) < 2 {
		t.Fatalf("a collection with nothing live kept %d antecedent IDs and spared %d chunks", r.ants.n, len(r.ants.spare))
	}
	if got, want := r.ApproxBytes(), held+24*int64(cap(r.ants.spare)); got != want {
		t.Errorf("ApproxBytes = %d with %d spare chunks, recorder holds %d", got, len(r.ants.spare), want)
	}
}

// --- helpers shared with sat tests (duplicated deliberately: internal test
// packages cannot import each other's test files) ---

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
