package proofcheck_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/proofcheck"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// guardedPigeons builds PHP(p, h) with its pigeon clauses guarded by one
// activation variable and its hole clauses by another, and returns it with
// the two assumptions that switch the guards on: unsat under both,
// satisfiable under either alone. The solver learns that the two clash
// while the first is assumed, so the refutation comes out of analyzeFinal's
// walk over the trail, not out of a level-0 chain.
func guardedPigeons(p, h int) (*cnf.Formula, []lits.Lit) {
	pigeons, holes := lits.Var(p*h+1), lits.Var(p*h+2)
	f := cnf.New(int(holes))
	v := func(pigeon, hole int) lits.Lit { return lits.PosLit(lits.Var(pigeon*h + hole + 1)) }
	for i := range p {
		c := cnf.Clause{lits.NegLit(pigeons)}
		for j := range h {
			c = append(c, v(i, j))
		}
		f.AddClause(c)
	}
	for j := range h {
		for i1 := range p {
			for i2 := i1 + 1; i2 < p; i2++ {
				f.AddClause(cnf.Clause{lits.NegLit(holes), v(i1, j).Neg(), v(i2, j).Neg()})
			}
		}
	}
	return f, []lits.Lit{lits.PosLit(pigeons), lits.PosLit(holes)}
}

// coneLearned returns the learned clauses p's final conflict reaches,
// highest ID first.
func coneLearned(p *proofcheck.Proof) []int {
	in := make([]bool, len(p.Clauses))
	for _, a := range p.Final {
		in[a] = true
	}
	var out []int
	for id := len(in) - 1; id >= 0; id-- {
		if in[id] && len(p.Clauses[id].Ants) > 0 {
			out = append(out, id)
			for _, a := range p.Clauses[id].Ants {
				in[a] = true
			}
		}
	}
	return out
}

// TestCheckRejectsMutations builds the proof a Complete recorder holds for
// PHP(5,4) under its two activation assumptions, and certifies it. Then it
// breaks one thing at a time, always in the final conflict's cone, and
// Check must reject every mutant.
func TestCheckRejectsMutations(t *testing.T) {
	f, acts := guardedPigeons(5, 4)
	rec := core.NewRecorderWith(f.NumClauses(), core.Complete)
	res := sat.New(f, sat.Options{Recorder: rec}).SolveAssuming(acts)
	if failed := slices.Sorted(slices.Values(res.FailedAssumptions)); res.Status != sat.Unsat || !slices.Equal(failed, acts) {
		t.Fatalf("%v, failed assumptions %v: want Unsat under both of %v", res.Status, res.FailedAssumptions, acts)
	}
	ids := rec.Core()
	if err := proofcheck.Check(rec.Proof(f, res.FailedAssumptions), ids); err != nil {
		t.Fatalf("the recorded proof: %v", err)
	}
	cone := coneLearned(rec.Proof(f, nil))
	if len(cone) < 3 {
		t.Fatalf("%d learned clauses in the cone: the test no longer mutates inside a derivation", len(cone))
	}
	mid := cone[len(cone)/2]

	for _, tc := range []struct {
		name   string
		mutate func(p *proofcheck.Proof) []int // returns the core to check
		want   string
	}{
		{"antecedent dropped", func(p *proofcheck.Proof) []int {
			cl := p.Clauses[mid]
			cl.Ants = cl.Ants[1:]
			return ids
		}, "not RUP"},
		{"literal flipped", func(p *proofcheck.Proof) []int {
			cl := p.Clauses[mid]
			cl.Lits = append(cnf.Clause{cl.Lits[0].Neg()}, cl.Lits[1:]...)
			return ids
		}, "not RUP"},
		{"core clause removed", func(*proofcheck.Proof) []int {
			return ids[1:]
		}, "not the core"},
		{"record forgotten", func(p *proofcheck.Proof) []int {
			p.Clauses[mid] = nil
			return ids
		}, "not a clause on record"},
		{"assumption dropped", func(p *proofcheck.Proof) []int {
			p.Assumptions = p.Assumptions[1:]
			return ids
		}, "final conflict does not propagate"},
	} {
		p := rec.Proof(f, res.FailedAssumptions)
		err := proofcheck.Check(p, tc.mutate(p))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
}

// forgets counts the collections its solver asks for.
type forgets struct {
	*core.Recorder
	calls int
}

func (r *forgets) Forget(live []sat.ClauseID) {
	r.calls++
	r.Recorder.Forget(live)
}

// TestCertifiesPersistentSolver feeds two models' unroll.Delta frames to one
// persistent solver each, registering every clause as a leaf, and solves
// depths 0 to 8 under the depth's activation literal: each answer comes out
// of analyzeFinal. Every depth is UNSAT, and its proof — the cone of a final
// conflict that holds under the failed assumptions — certifies its core,
// through the collections the recorder makes on the way.
func TestCertifiesPersistentSolver(t *testing.T) {
	collected := false
	for _, c := range []*circuit.Circuit{bench.ParityMixer(5, 3, 10), bench.AdderTwin(6, 0, 0)} {
		u, err := unroll.New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := u.Delta()
		rec := &forgets{Recorder: core.NewRecorderWith(0, core.Complete)}
		s := sat.New(cnf.New(0), sat.Options{Recorder: rec})
		for k := 0; k <= 8; k++ {
			for _, cl := range d.Frame(k).Clauses {
				rec.AddLeaf(s.AddClause(cl), cl)
			}
			res := s.SolveAssuming([]lits.Lit{d.ActLit(k)})
			if res.Status != sat.Unsat {
				t.Fatalf("%s depth %d: %v, want Unsat", c.Name(), k, res.Status)
			}
			if err := proofcheck.Check(rec.Proof(nil, res.FailedAssumptions), rec.Core()); err != nil {
				t.Errorf("%s depth %d, failed assumptions %v: %v", c.Name(), k, res.FailedAssumptions, err)
			}
			rec.ResetFinal()
		}
		t.Logf("%s: %d learned records, %d collections", c.Name(), rec.NumLearnedRecorded(), rec.calls)
		collected = collected || rec.calls > 0
	}
	if !collected {
		t.Fatal("no recorder collected: the test no longer certifies a recorder that has forgotten")
	}
}

// TestImportsOnlyLitsAndCnf: the checker shares no code with the solver or
// the recorder it audits, so of this module it imports lits and cnf alone.
func TestImportsOnlyLitsAndCnf(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := []string{"repro/internal/lits", "repro/internal/cnf"}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "repro/") && !slices.Contains(allowed, path) {
				t.Errorf("%s imports %s; proofcheck may import only %v from this module", name, path, allowed)
			}
		}
	}
}
