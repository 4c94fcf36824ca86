package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/proofcheck"
	"repro/internal/sat"
)

// php builds PHP(n+1 pigeons, n holes) via the shared pigeonhole helper:
// unsatisfiable, with real search, the canonical proof-logging workout.
func php(n int) *cnf.Formula { return pigeonhole(n+1, n) }

// The tests below exercise the Complete payload — the complete CDG, which
// keeps learned-clause literals, so proofcheck can replay its proof.

func solveWithFull(t *testing.T, f *cnf.Formula) (*Recorder, sat.Result) {
	t.Helper()
	rec := NewRecorderWith(f.NumClauses(), Complete)
	opts := sat.Options{}
	opts.Recorder = rec
	res := sat.New(f, opts).Solve()
	return rec, res
}

func TestFullRecorderProofChecksOnPigeonhole(t *testing.T) {
	for n := 2; n <= 5; n++ {
		f := php(n)
		rec, res := solveWithFull(t, f)
		if res.Status != sat.Unsat {
			t.Fatalf("php(%d): %v", n, res.Status)
		}
		if !rec.HasProof() {
			t.Fatalf("php(%d): no proof", n)
		}
		if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err != nil {
			t.Fatalf("php(%d): proof check failed: %v", n, err)
		}
	}
}

func TestFullRecorderCoreMatchesSimplified(t *testing.T) {
	f := php(4)

	full, res := solveWithFull(t, f)
	if res.Status != sat.Unsat {
		t.Fatalf("full: %v", res.Status)
	}

	simple := NewRecorder(f.NumClauses())
	optsS := sat.Options{}
	optsS.Recorder = simple
	if res := sat.New(f, optsS).Solve(); res.Status != sat.Unsat {
		t.Fatalf("simple: %v", res.Status)
	}

	// The searches are identical (recording does not steer), so the cores
	// must match exactly.
	a, b := full.Core(), simple.Core()
	if len(a) != len(b) {
		t.Fatalf("core sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cores differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// topLearned returns the final conflict's highest learned antecedent in p:
// a clause of the cone, and its highest learned one, since a clause derived
// from it would be higher still.
func topLearned(t *testing.T, p *proofcheck.Proof) *proofcheck.Clause {
	t.Helper()
	top := -1
	for _, a := range p.Final {
		if len(p.Clauses[a].Ants) > 0 {
			top = max(top, a)
		}
	}
	if top < 0 {
		t.Fatal("the final conflict reaches no learned clause")
	}
	return p.Clauses[top]
}

func TestFullRecorderDetectsCorruptedProof(t *testing.T) {
	f := php(3)
	rec, res := solveWithFull(t, f)
	if res.Status != sat.Unsat {
		t.Fatal(res.Status)
	}
	if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err != nil {
		t.Fatalf("the proof before corruption: %v", err)
	}
	// Corrupt one learned clause of the cone: swap its first literal for a
	// fresh variable that occurs nowhere else. RUP from the recorded
	// antecedents must now fail.
	p := rec.Proof(f, nil)
	cl := topLearned(t, p)
	cl.Lits = append(cnf.Clause{lits.PosLit(lits.Var(f.NumVars + 1000))}, cl.Lits[1:]...)
	if err := proofcheck.Check(p, rec.Core()); err == nil {
		t.Fatal("corrupted proof passed the checker")
	} else if !strings.Contains(err.Error(), "RUP") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFullRecorderDetectsDroppedAntecedents(t *testing.T) {
	f := php(3)
	rec, res := solveWithFull(t, f)
	if res.Status != sat.Unsat {
		t.Fatal(res.Status)
	}
	// Drop the antecedents of a learned clause of the cone down to one:
	// its derivation can no longer be justified.
	p := rec.Proof(f, nil)
	cl := topLearned(t, p)
	if len(cl.Ants) < 2 {
		t.Fatalf("the cone's top learned clause has %d antecedents", len(cl.Ants))
	}
	cl.Ants = cl.Ants[:1]
	if err := proofcheck.Check(p, rec.Core()); err == nil {
		t.Fatal("proof with dropped antecedents passed the checker")
	}
}

func TestFullRecorderNoProofOnSat(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	rec, res := solveWithFull(t, f)
	if res.Status != sat.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	if rec.HasProof() {
		t.Fatal("SAT run must not record a final conflict")
	}
	if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err == nil {
		t.Fatal("Check must fail without a final conflict")
	}
	if rec.Core() != nil {
		t.Fatal("Core must be nil without a proof")
	}
}

func TestFullRecorderBytesExceedSimplified(t *testing.T) {
	f := php(5)
	full, res := solveWithFull(t, f)
	if res.Status != sat.Unsat {
		t.Fatal(res.Status)
	}
	simple := NewRecorder(f.NumClauses())
	opts := sat.Options{}
	opts.Recorder = simple
	if r := sat.New(f, opts).Solve(); r.Status != sat.Unsat {
		t.Fatal(r.Status)
	}
	if full.ApproxBytes() <= simple.ApproxBytes() {
		t.Fatalf("complete CDG (%d B) must outweigh simplified (%d B)",
			full.ApproxBytes(), simple.ApproxBytes())
	}
}

func TestFullRecorderOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order IDs")
		}
	}()
	rec := NewRecorderWith(0, Complete)
	rec.RecordLearned(5, nil, []sat.ClauseID{0})
	rec.RecordLearned(5, nil, []sat.ClauseID{0}) // IDs only grow
}

func TestFullRecorderLevel0OnlyProof(t *testing.T) {
	// A formula refuted by pure BCP: units 1, -2 and clause (-1 2). The
	// proof consists of the final conflict alone (no learned clauses);
	// proofcheck must accept it.
	f := cnf.New(2)
	f.Add(1)
	f.Add(-2)
	f.Add(-1, 2)
	rec, res := solveWithFull(t, f)
	if res.Status != sat.Unsat {
		t.Fatal(res.Status)
	}
	if rec.NumLearnedRecorded() != 0 {
		t.Fatalf("BCP-only refutation learned %d clauses", rec.NumLearnedRecorded())
	}
	core := rec.Core()
	if err := proofcheck.Check(rec.Proof(f, nil), core); err != nil {
		t.Fatalf("level-0 proof rejected: %v", err)
	}
	if len(core) != 3 {
		t.Fatalf("core = %v, want all three clauses", core)
	}
}

func TestCheckRUPRejectsForwardReference(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	rec := NewRecorderWith(f.NumClauses(), Complete)
	rec.RecordLearned(1, cnf.Clause{lits.NegLit(1)}, []sat.ClauseID{2})
	rec.RecordFinal([]sat.ClauseID{0, 1})
	if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err == nil {
		t.Fatal("forward antecedent reference must fail the check")
	}
}

// TestFullRecorderOnRandomUnsat checks the full pipeline on random UNSAT
// instances: solve, then certify the proof and that the extracted core is
// exactly the leaves it refutes.
func TestFullRecorderOnRandomUnsat(t *testing.T) {
	unsatSeen := 0
	for seed := uint64(1); seed < 160 && unsatSeen < 25; seed++ {
		f := randomFormulaFull(seed, 8, 45, 3)
		rec, res := solveWithFull(t, f)
		if res.Status != sat.Unsat {
			continue
		}
		unsatSeen++
		if err := proofcheck.Check(rec.Proof(f, nil), rec.Core()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if unsatSeen < 10 {
		t.Fatalf("only %d UNSAT instances generated; adjust the generator", unsatSeen)
	}
}

// randomFormulaFull is a deterministic random-formula generator local to
// this package (mirrors the one in internal/sat's tests).
func randomFormulaFull(seed uint64, nVars, nClauses, maxLen int) *cnf.Formula {
	x := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545F4914F6CDD1D
	}
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		n := 1 + int(next()%uint64(maxLen))
		c := make(cnf.Clause, 0, n)
		for j := 0; j < n; j++ {
			v := lits.Var(1 + int(next()%uint64(nVars)))
			c = append(c, lits.MkLit(v, next()&1 == 0))
		}
		f.AddClause(c)
	}
	return f
}

// TestEmptyLeafCertifies: an empty clause registered as a leaf — what a
// live solver is given when an encoding spells out an outright
// contradiction — is the empty clause of the proof, not a missing record,
// while an ID nobody registered stays no record. The final conflict that
// rests on the empty leaf alone certifies, on every payload that keeps
// leaves.
func TestEmptyLeafCertifies(t *testing.T) {
	for _, payload := range []Payload{WithLeaves, Complete} {
		rec := NewRecorderWith(0, payload)
		rec.AddLeaf(0, cnf.Clause{lits.PosLit(1)})
		rec.AddLeaf(2, nil) // ID 1 is skipped: nobody registered it
		rec.RecordFinal([]sat.ClauseID{2})
		ids, err := rec.Certify(nil, nil)
		if err != nil {
			t.Fatalf("payload %d: %v", payload, err)
		}
		if len(ids) != 1 || ids[0] != 2 {
			t.Errorf("payload %d: certified core %v, want [2]", payload, ids)
		}
		if p := rec.Proof(nil, nil); p.Clauses[1] != nil || p.Clauses[2] == nil {
			t.Errorf("payload %d: unregistered ID on record %v, empty leaf on record %v",
				payload, p.Clauses[1] != nil, p.Clauses[2] != nil)
		}
		rec.RecordFinal([]sat.ClauseID{1})
		if _, err := rec.Certify(nil, nil); err == nil {
			t.Errorf("payload %d: a final conflict on an unregistered ID certified", payload)
		}
	}
}

// TestCertifyReturnsCheckedCore: Certify returns Core's IDs on a genuine
// refutation and an error where proofcheck rejects one — no final
// conflict, or a recorder that keeps no learned literals.
func TestCertifyReturnsCheckedCore(t *testing.T) {
	f := php(4)
	rec, res := solveWithFull(t, f)
	if res.Status != sat.Unsat {
		t.Fatal(res.Status)
	}
	ids, err := rec.Certify(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := rec.Core(); !slices.Equal(ids, want) {
		t.Errorf("certified %v, core %v", ids, want)
	}
	simple := NewRecorder(f.NumClauses())
	if r := sat.New(f, sat.Options{Recorder: simple}).Solve(); r.Status != sat.Unsat {
		t.Fatal(r.Status)
	}
	if _, err := simple.Certify(f, nil); err == nil {
		t.Error("an IDs-only proof certified")
	}
	sat2 := cnf.New(1)
	sat2.Add(1)
	none, _ := solveWithFull(t, sat2)
	if _, err := none.Certify(sat2, nil); err == nil {
		t.Error("a recorder without a final conflict certified")
	}
}
