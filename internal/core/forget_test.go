package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/proofcheck"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// keepAll records a solve without ever forgetting: the reference a
// forgetting recorder's cores are compared against.
type keepAll struct{ *Recorder }

func (keepAll) Forget([]sat.ClauseID) {}

// forgetting counts the collections the solver asks its recorder for.
type forgetting struct {
	*Recorder
	calls int
}

func (f *forgetting) Forget(live []sat.ClauseID) {
	f.calls++
	f.Recorder.Forget(live)
}

// withholding drops the newest live ID from every collection: the solver
// bug the forgotten-record assertion is there to catch.
type withholding struct{ *Recorder }

func (w withholding) Forget(live []sat.ClauseID) { w.Recorder.Forget(live[:len(live)-1]) }

// answer is the core of one UNSAT answer: its clause IDs and variables.
type answer struct {
	ids  []int
	vars []lits.Var
}

// scenario runs one solve sequence, its recorder attached through wrap,
// and returns the core of every UNSAT answer along with the recorder.
type scenario func(wrap func(*Recorder) sat.ProofRecorder) ([]answer, *Recorder)

// freshSolve is one sat.New(f).Solve.
func freshSolve(f *cnf.Formula) scenario {
	return func(wrap func(*Recorder) sat.ProofRecorder) ([]answer, *Recorder) {
		r := NewRecorder(f.NumClauses())
		if sat.New(f, sat.Options{Recorder: wrap(r)}).Solve().Status != sat.Unsat {
			return nil, r
		}
		ids := r.Core()
		return []answer{{ids, r.CoreVarsOf(ids, f, f.NumVars, nil)}}, r
	}
}

// persistentBMC feeds add_w4's frames to one persistent solver, depth by
// depth as the warm pool does, and solves each depth under its activation
// literal: every answer comes out of analyzeFinal.
func persistentBMC(depths int) scenario {
	return func(wrap func(*Recorder) sat.ProofRecorder) ([]answer, *Recorder) {
		u, err := unroll.New(bench.AdderTwin(4, 0, 0), 0)
		if err != nil {
			panic(err)
		}
		d := u.Delta()
		r := NewRecorderWith(0, WithLeaves)
		s := sat.New(cnf.New(0), sat.Options{Recorder: wrap(r)})
		var out []answer
		for k := 0; k < depths; k++ {
			for _, c := range d.Frame(k).Clauses {
				r.AddLeaf(s.AddClause(c), c)
			}
			if s.SolveAssuming([]lits.Lit{d.ActLit(k)}).Status != sat.Unsat {
				panic("add_w4 holds at every depth")
			}
			ids := r.Core()
			// CoreVarsOf's result is the recorder's until its next call.
			out = append(out, answer{ids, slices.Clone(r.CoreVarsOf(ids, nil, d.NumVars(k), nil))})
			r.ResetFinal()
		}
		return out, r
	}
}

// TestForgetKeepsCores: a recorder that forgets at every compaction gives
// the cores, clause for clause and variable for variable, of one that
// keeps every record — on fresh solves of random formulas, pigeonholes and
// add_w4, and on a persistent solver answering under assumptions. Every
// case learns past the learnt-clause limit and must compact the arena at
// least once (twice on the persistent solver, three to twelve times on the
// fresh solves). And a collection
// that withholds one live clause trips the forgotten-record assertion.
func TestForgetKeepsCores(t *testing.T) {
	u, err := unroll.New(bench.AdderTwin(4, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]scenario{
		"php 8":             freshSolve(php(8)),
		"add_w4 depth 8":    freshSolve(u.Formula(8)),
		"persistent add_w4": persistentBMC(25),
	}
	for _, seed := range []int64{1, 3, 4, 7} { // UNSAT after 2 000 to 9 000 conflicts
		cases[fmt.Sprintf("random 3-sat %d", seed)] = freshSolve(randomCNF(rand.New(rand.NewSource(seed)), 150, 680, 3))
	}
	total := 0
	for name, run := range cases {
		want, ref := run(func(r *Recorder) sat.ProofRecorder { return keepAll{r} })
		var counted *forgetting
		got, rec := run(func(r *Recorder) sat.ProofRecorder {
			counted = &forgetting{Recorder: r}
			return counted
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d UNSAT answers forgetting, %d keeping every record", name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].ids, want[i].ids) || !slices.Equal(got[i].vars, want[i].vars) {
				t.Fatalf("%s: answer %d has a core of %d clauses / %d variables forgetting, %d / %d keeping every record",
					name, i, len(got[i].ids), len(got[i].vars), len(want[i].ids), len(want[i].vars))
			}
		}
		if counted.calls == 0 {
			t.Errorf("%s: no collection: the case no longer exercises forgetting", name)
		} else if rec.ants.n >= ref.ants.n {
			t.Errorf("%s: %d collections left %d bytes of antecedent runs of %d", name, counted.calls, rec.ants.n, ref.ants.n)
		}
		total += counted.calls
		t.Logf("%s: %d UNSAT answers, %d collections, %d of %d bytes of antecedent runs kept", name, len(got), counted.calls, rec.ants.n, ref.ants.n)
	}
	if total < 20 {
		t.Errorf("%d collections across every case: the deletion path is barely exercised", total)
	}

	t.Run("withheld live clause", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("a collection that withheld a live clause went unnoticed")
			}
		}()
		freshSolve(u.Formula(8))(func(r *Recorder) sat.ProofRecorder { return withholding{r} })
	})
}

// TestForgetMatchesReferenceTraversal grows random graphs over several
// storage chunks under the solver's contract — a new clause's antecedents
// are leaves or clauses still live — forgets at random points with the
// live set, and after every round compares the core with the reference
// traversal of the whole graph. Antecedent runs slide across chunk
// boundaries, and records forgotten at one collection stay forgotten at
// the next.
func TestForgetMatchesReferenceTraversal(t *testing.T) {
	const nVars = 40
	none := func(lits.Var) bool { return false }
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxAnts := 6
		if seed%3 == 0 {
			maxAnts = 400 // ~350 bytes a run: past one chunk within a few hundred clauses
		}
		rec := NewRecorderWith(0, WithLeaves)
		ref := &refGraph{deps: map[sat.ClauseID][]sat.ClauseID{}, leaves: map[sat.ClauseID][]lits.Lit{}}
		var leaves, live []sat.ClauseID
		next := sat.ClauseID(0)
		freed := false // a collection handed a chunk to the spare list
		pick := func() sat.ClauseID {
			if len(live) > 0 && rng.Intn(3) > 0 {
				return live[rng.Intn(len(live))]
			}
			return leaves[rng.Intn(len(leaves))]
		}
		for round := 0; round < 8; round++ {
			for step := 0; step < 300; step++ {
				id := next
				next++
				if len(leaves) < 3 || rng.Intn(4) == 0 {
					cl := []lits.Lit{lits.MkLit(lits.Var(1+rng.Intn(nVars)), rng.Intn(2) == 0)}
					rec.AddLeaf(id, cl)
					ref.leaves[id] = cl
					leaves = append(leaves, id)
					continue
				}
				ants := make([]sat.ClauseID, 1+rng.Intn(maxAnts))
				for i := range ants {
					ants[i] = pick()
				}
				rec.RecordLearned(id, nil, ants)
				ref.deps[id] = ants
				live = append(live, id)
			}
			// The solver deletes about half its learnt clauses and names the
			// rest.
			live = slices.DeleteFunc(live, func(sat.ClauseID) bool { return rng.Intn(2) == 0 })
			rec.Forget(live)
			freed = freed || len(rec.ants.spare) > 0

			final := make([]sat.ClauseID, 1+rng.Intn(4))
			for i := range final {
				final[i] = pick()
			}
			rec.RecordFinal(final)
			want := ref.core(final)
			if got := rec.Core(); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: core %v, reference %v", seed, round, got, want)
			}
			if got, wantVars := rec.CoreVarsOf(want, nil, nVars, none), ref.vars(want, nVars, none); !slices.Equal(got, wantVars) {
				t.Fatalf("seed %d round %d: core vars %v, reference %v", seed, round, got, wantVars)
			}
			// A final conflict still recorded is a root of the next
			// collection: extracting it again after one gives the same core.
			rec.Forget(live[:len(live)/2])
			if got := rec.Core(); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: core %v after a collection under the final conflict, reference %v", seed, round, got, want)
			}
			rec.ResetFinal()
			live = live[:len(live)/2]
		}
		if maxAnts > 6 && !freed {
			t.Errorf("seed %d: collections over %d chunks freed none", seed, len(rec.ants.chunks))
		}
		if rec.NumLearnedRecorded() != len(ref.deps) {
			t.Errorf("seed %d: %d learned records, reference %d", seed, rec.NumLearnedRecorded(), len(ref.deps))
		}
	}
}

// TestForgetDropsUnreachableRecords pins one collection: the record no
// live clause reaches loses its run and is marked forgotten, the others
// slide down byte for byte, and a traversal that reaches the forgotten one
// panics.
func TestForgetDropsUnreachableRecords(t *testing.T) {
	// Originals 0..299; 300 <- {0,1}; 301 <- {300,2}; 302 <- {3,3,3};
	// 303 <- {301}. A delta of -300 or -298 codes in two bytes, the others
	// in one: runs of 3, 3, 4 and 1 bytes.
	r := NewRecorder(300)
	records := map[sat.ClauseID][]sat.ClauseID{300: {0, 1}, 301: {300, 2}, 302: {3, 3, 3}, 303: {301}}
	for id := sat.ClauseID(300); id <= 303; id++ {
		r.RecordLearned(id, nil, records[id])
	}
	if want := []uint32{3, 6, 10, 11}; !slices.Equal(r.antEnd.slice(), want) {
		t.Fatalf("antEnd = %v before the collection, want %v", r.antEnd.slice(), want)
	}
	r.Forget([]sat.ClauseID{303})
	if want := []uint32{3, 6, 6 | forgottenBit, 7}; !slices.Equal(r.antEnd.slice(), want) {
		t.Fatalf("antEnd = %#x, want %#x", r.antEnd.slice(), want)
	}
	if r.ants.n != 7 {
		t.Fatalf("the store holds %d bytes after the collection, want 7", r.ants.n)
	}
	for _, id := range []sat.ClauseID{300, 301, 303} {
		lo, hi := r.span(&r.antEnd, id)
		if got := decodeRun(&r.ants, nil, lo, hi, id); !slices.Equal(got, records[id]) {
			t.Fatalf("record %d reads %v after the collection, want %v", id, got, records[id])
		}
	}
	r.RecordFinal([]sat.ClauseID{303})
	if got := r.Core(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("core = %v, want [0 1 2]", got)
	}

	r.RecordFinal([]sat.ClauseID{302})
	defer func() {
		if recover() == nil {
			t.Error("a core through a forgotten record did not panic")
		}
	}()
	r.Core()
}

// both feeds every event a solver emits to two recorders and counts the
// collections.
type both struct {
	a, b  *Recorder
	calls int
}

func (r *both) RecordLearned(id sat.ClauseID, literals []lits.Lit, ants []sat.ClauseID) {
	r.a.RecordLearned(id, literals, ants)
	r.b.RecordLearned(id, literals, ants)
}

func (r *both) RecordFinal(ants []sat.ClauseID) {
	r.a.RecordFinal(ants)
	r.b.RecordFinal(ants)
}

func (r *both) Forget(live []sat.ClauseID) {
	r.calls++
	r.a.Forget(live)
	r.b.Forget(live)
}

// TestCompleteRecorderForgetsLikeWithLeaves: every payload forgets by one
// rule. On the same events — PHP(8,7)'s solve, with its collections — a
// Complete recorder drops exactly the records a WithLeaves one drops, and
// what it keeps still certifies its core.
func TestCompleteRecorderForgetsLikeWithLeaves(t *testing.T) {
	f := php(7)
	r := &both{a: NewRecorderWith(f.NumClauses(), WithLeaves), b: NewRecorderWith(f.NumClauses(), Complete)}
	if res := sat.New(f, sat.Options{Recorder: r}).Solve(); res.Status != sat.Unsat {
		t.Fatal(res.Status)
	}
	ends := r.b.antEnd.slice()
	forgotten := 0
	for _, end := range ends {
		if end&forgottenBit != 0 {
			forgotten++
		}
	}
	if r.calls == 0 || forgotten == 0 {
		t.Fatalf("%d collections forgot %d records: the test no longer exercises what it is for", r.calls, forgotten)
	}
	if !slices.Equal(ends, r.a.antEnd.slice()) || !slices.Equal(r.b.ants.slice(), r.a.ants.slice()) {
		t.Fatal("a Complete recorder kept other records than a WithLeaves one")
	}
	if err := proofcheck.Check(r.b.Proof(f, nil), r.b.Core()); err != nil {
		t.Fatalf("after %d of %d records were forgotten: %v", forgotten, len(ends), err)
	}
}

// TestProofHasNoForgottenRecord: Proof hands a forgotten record over as no
// record, never as a leaf — a Complete recorder keeps its literals, which
// would make it a clause taken as given — so a cone that reaches one, here
// through a clause the collection was not told of, is rejected.
func TestProofHasNoForgottenRecord(t *testing.T) {
	f := cnf.New(2)
	f.Add(1)
	f.Add(-1, 2)
	f.Add(-2)
	r := NewRecorderWith(f.NumClauses(), Complete)
	r.RecordLearned(3, []lits.Lit{lits.PosLit(2)}, []sat.ClauseID{0, 1})
	r.Forget(nil)
	r.RecordLearned(4, []lits.Lit{lits.PosLit(2)}, []sat.ClauseID{3})
	r.RecordFinal([]sat.ClauseID{2, 4})
	p := r.Proof(f, nil)
	if p.Clauses[3] != nil {
		t.Fatalf("forgotten record 3 handed over as %+v", *p.Clauses[3])
	}
	if err := proofcheck.Check(p, []int{2, 3}); err == nil {
		t.Fatal("a cone through a forgotten record was certified")
	}
}

// TestChunkedTruncate: truncating at a chunk boundary keeps exactly the
// chunks below it, to zero keeps none, and growth takes the spares back
// before it allocates anything — for the coded runs' bytes and the end
// tables' words alike.
func TestChunkedTruncate(t *testing.T) {
	t.Run("runs", testChunkedTruncate[byte])
	t.Run("end tables", testChunkedTruncate[uint32])
}

func testChunkedTruncate[T byte | uint32](t *testing.T) {
	var c chunked[T]
	per := 1 << c.shift() // elements a chunk holds
	// Element i of the store holds i mod 251, so an element out of place
	// shows.
	fill := func(n int) {
		for end := c.n + n; c.n < end; {
			c.put(T(c.n % 251))
		}
	}
	check := func(what string, n int) {
		t.Helper()
		if c.n != n {
			t.Fatalf("%s: %d elements, want %d", what, c.n, n)
		}
		for i := 0; i < n; i++ {
			if got := c.at(i); got != T(i%251) {
				t.Fatalf("%s: element %d reads %d", what, i, got)
			}
		}
	}
	// A first chunk that append has grown only part way is a spare too, and
	// the first chunk again when the store grows back.
	fill(100)
	first := &c.chunks[0][0]
	c.truncate(0)
	fill(1)
	if len(c.spare) != 0 || &c.chunks[0][0] != first {
		t.Fatalf("truncated to zero from one small chunk: %d spares, the first chunk reused %v", len(c.spare), &c.chunks[0][0] == first)
	}
	c.truncate(0)

	// What the chunks hold, spares included; bytes adds the slice headers.
	held := func() int64 { return c.bytes() - 24*int64(cap(c.chunks)+cap(c.spare)) }
	fill(3*per + 5)
	before := held()

	c.truncate(per)
	if len(c.chunks) != 1 || len(c.chunks[0]) != per || len(c.spare) != 3 {
		t.Fatalf("truncated at the first chunk boundary: %d chunks (the first of %d), %d spares", len(c.chunks), len(c.chunks[0]), len(c.spare))
	}
	check("at a chunk boundary", per)
	if held() != before {
		t.Errorf("the chunks hold %d bytes after the truncation, %d before", held(), before)
	}
	fill(per + 1)
	check("grown past the boundary", 2*per+1)

	c.truncate(0)
	if len(c.chunks) != 0 || len(c.spare) != 4 {
		t.Fatalf("truncated to zero: %d chunks, %d spares", len(c.chunks), len(c.spare))
	}
	if allocs := testing.AllocsPerRun(3, func() {
		c.truncate(0)
		fill(3 * per)
	}); allocs != 0 {
		t.Errorf("regrowing from the spares allocated %.0f times", allocs)
	}
	check("regrown from the spares", 3*per)
	if held() != before {
		t.Errorf("the chunks hold %d bytes after regrowth, %d before", held(), before)
	}
}

// TestReloadAfterMultiChunkGraph: Reload leaves the recorder NewRecorder
// would build — no record, no final conflict — holding the storage the
// last graph grew, and the next graph grows into it.
func TestReloadAfterMultiChunkGraph(t *testing.T) {
	ants := make([]sat.ClauseID, 50)
	const clauses = 6000
	record := func(r *Recorder, base int) {
		for i := range ants {
			ants[i] = sat.ClauseID(i)
		}
		// 300 000 IDs, nearly all a byte each: four chunks and part of a
		// fifth.
		for i := 0; i < clauses; i++ {
			r.RecordLearned(sat.ClauseID(base+i), nil, ants)
			ants[i%len(ants)] = sat.ClauseID(base + i)
		}
		r.RecordFinal([]sat.ClauseID{sat.ClauseID(base + clauses - 1)})
	}
	r := NewRecorder(100)
	record(r, 100)
	if len(r.ants.chunks) < 4 {
		t.Fatalf("%d chunks: the graph is not multi-chunk", len(r.ants.chunks))
	}
	r.Core()
	before := r.ApproxBytes()

	r.Reload(60)
	held := r.ApproxBytes()
	if held < before {
		t.Errorf("ApproxBytes = %d after Reload, %d before: the storage is still held", held, before)
	}
	if r.HasProof() || r.Core() != nil || r.NumLearnedRecorded() != 0 || r.antEnd.n != 0 || r.ants.n != 0 {
		t.Fatalf("Reload kept the last graph: proof %v, %d learned, %d entries, %d antecedents",
			r.HasProof(), r.NumLearnedRecorded(), r.antEnd.n, r.ants.n)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		r.Reload(60)
		record(r, 60)
	}); allocs != 0 {
		t.Errorf("a graph of the same size grown after Reload allocated %.0f times", allocs)
	}
	if got := r.ApproxBytes(); got != held {
		t.Errorf("ApproxBytes = %d after regrowth, %d after Reload", got, held)
	}
	want := NewRecorder(60)
	record(want, 60)
	if got, wantCore := r.Core(), want.Core(); !slices.Equal(got, wantCore) {
		t.Fatalf("core after Reload has %d clauses, a new recorder's %d", len(got), len(wantCore))
	}
}
