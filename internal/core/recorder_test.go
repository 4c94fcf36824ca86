package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/lits"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// refGraph is the naive conflict-dependency graph the Recorder is checked
// against: a map from learned ID to antecedents, a map from leaf ID to
// literals, and a stack-based traversal.
type refGraph struct {
	deps   map[sat.ClauseID][]sat.ClauseID
	leaves map[sat.ClauseID][]lits.Lit
}

func (g *refGraph) core(final []sat.ClauseID) []int {
	visited := map[sat.ClauseID]bool{}
	var out []int
	stack := slices.Clone(final)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[id] {
			continue
		}
		visited[id] = true
		if ants, learned := g.deps[id]; learned {
			stack = append(stack, ants...)
		} else {
			out = append(out, int(id))
		}
	}
	slices.Sort(out)
	return out
}

func (g *refGraph) vars(core []int, nVars int, aux func(lits.Var) bool) []lits.Var {
	set := map[lits.Var]bool{}
	for _, id := range core {
		for _, l := range g.leaves[sat.ClauseID(id)] {
			if v := l.Var(); int(v) <= nVars && !aux(v) {
				set[v] = true
			}
		}
	}
	var out []lits.Var
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestRecorderMatchesReferenceTraversal grows random graphs the way a
// persistent solver does — frames of leaves and runs of learned clauses,
// a later frame's leaves registered after learned clauses, interleaved on
// one ID counter — and after every round compares core and core variables with
// the reference. Records persist across rounds; the final marker does not.
// The larger graphs span several storage chunks. Every fourth graph has
// large ID gaps: its first ID lies past 2^27, above originals the recorder
// holds nothing for, so an antecedent reaching back to one codes in four or
// five bytes, and tens of thousands of IDs nobody registers separate its
// rounds.
func TestRecorderMatchesReferenceTraversal(t *testing.T) {
	const nVars = 60
	aux := func(v lits.Var) bool { return v%7 == 0 }
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxAnts := 4
		if seed%10 == 0 {
			maxAnts = 120 // ~60 per clause, ~100 bytes: past one chunk within a thousand clauses
		}
		// Unregistered leaves are legal too (the recorder then holds no
		// literals for them): every third graph leaves some out.
		registerAll := seed%3 != 0
		base, gap := 0, 4
		if seed%4 == 0 {
			base, gap = 1<<27+int(seed)<<12, 1<<16
		}
		rec := NewRecorderWith(base, WithLeaves)
		ref := &refGraph{deps: map[sat.ClauseID][]sat.ClauseID{}, leaves: map[sat.ClauseID][]lits.Lit{}}
		next := sat.ClauseID(base)
		for round := 0; round < 5; round++ {
			for step := 0; step < 400; step++ {
				id := next
				next++
				if int(id) < base+3 || rng.Intn(3) == 0 {
					cl := make([]lits.Lit, 1+rng.Intn(4))
					for i := range cl {
						// Some variables lie beyond nVars and must be ignored.
						cl[i] = lits.MkLit(lits.Var(1+rng.Intn(nVars+10)), rng.Intn(2) == 0)
					}
					if registerAll || rng.Intn(2) == 0 {
						rec.AddLeaf(id, cl)
						ref.leaves[id] = cl
					}
					continue
				}
				ants := make([]sat.ClauseID, 1+rng.Intn(maxAnts))
				for i := range ants {
					ants[i] = sat.ClauseID(rng.Intn(int(id)))
					if rng.Intn(2) == 0 { // recent clauses are the likelier antecedents
						ants[i] = id - 1 - sat.ClauseID(rng.Intn(min(int(id), 20)))
					}
				}
				rec.RecordLearned(id, nil, ants)
				ref.deps[id] = ants
			}
			// The final conflict may name leaves the table has not reached.
			final := make([]sat.ClauseID, 1+rng.Intn(6))
			for i := range final {
				final[i] = sat.ClauseID(rng.Intn(int(next) + 5))
			}
			rec.RecordFinal(final)
			if !rec.HasProof() {
				t.Fatalf("seed %d round %d: no proof after RecordFinal", seed, round)
			}
			want := ref.core(final)
			got := rec.Core()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: core %v, reference %v", seed, round, got, want)
			}
			if again := rec.Core(); !slices.Equal(again, want) {
				t.Fatalf("seed %d round %d: second extraction gave %v, reference %v", seed, round, again, want)
			}
			gotVars, wantVars := rec.CoreVarsOf(got, nil, nVars, aux), ref.vars(want, nVars, aux)
			if !slices.Equal(gotVars, wantVars) {
				t.Fatalf("seed %d round %d: core vars %v, reference %v", seed, round, gotVars, wantVars)
			}
			rec.ResetFinal()
			if rec.HasProof() || rec.Core() != nil {
				t.Fatalf("seed %d round %d: final marker survived ResetFinal", seed, round)
			}
			next += sat.ClauseID(rng.Intn(gap)) // leaves nobody registers before the next round
		}
		if len(rec.ants.chunks) > 1 != (maxAnts > 4) {
			t.Errorf("seed %d: %d antecedent chunks with up to %d antecedents per clause", seed, len(rec.ants.chunks), maxAnts)
		}
		if rec.NumLearnedRecorded() != len(ref.deps) {
			t.Errorf("seed %d: %d learned records, reference %d", seed, rec.NumLearnedRecorded(), len(ref.deps))
		}
	}
}

// TestRecorderLearnedReachableFromTwoFinals: a learned clause recorded at
// one depth serves the proofs of two, and a frame clause registered after
// it is a leaf like an original.
func TestRecorderLearnedReachableFromTwoFinals(t *testing.T) {
	x := func(v int) []lits.Lit { return []lits.Lit{lits.PosLit(lits.Var(v))} }
	r := NewRecorderWith(0, WithLeaves)
	r.AddLeaf(0, x(1))
	r.AddLeaf(1, x(2))
	r.RecordLearned(2, x(9), []sat.ClauseID{0, 1})
	r.RecordFinal([]sat.ClauseID{2})
	if got := r.Core(); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("depth 0 core = %v", got)
	}
	r.ResetFinal()

	r.AddLeaf(3, x(3)) // the next frame
	r.AddLeaf(4, x(4)) // an import
	r.RecordLearned(5, x(9), []sat.ClauseID{2, 4})
	r.RecordFinal([]sat.ClauseID{5, 3, 6}) // 6: a leaf past the table
	if got := r.Core(); !slices.Equal(got, []int{0, 1, 3, 4, 6}) {
		t.Fatalf("depth 1 core = %v", got)
	}
	vars := r.CoreVarsOf(r.Core(), nil, 4, func(v lits.Var) bool { return v == 3 })
	if !slices.Equal(vars, []lits.Var{1, 2, 4}) {
		t.Fatalf("depth 1 core vars = %v (x3 is auxiliary, x9 only occurs in learned clauses)", vars)
	}
}

// TestRecorderAllocations: the graph is flat. Recording allocates per
// 64 KB chunk (and per doubling of the small tables), not per clause — the
// map- and slice-per-record recorders this one replaced allocated at least
// once per RecordLearned, 10 000 times here — and an extraction allocates
// nothing but its result once the scratch exists.
func TestRecorderAllocations(t *testing.T) {
	ants := make([]sat.ClauseID, 40)
	for i := range ants {
		ants[i] = sat.ClauseID(i)
	}
	const clauses = 10000
	var r *Recorder
	record := testing.AllocsPerRun(5, func() {
		r = NewRecorder(100)
		for i := 0; i < clauses; i++ {
			r.RecordLearned(sat.ClauseID(100+i), nil, ants)
		}
	})
	chunks := float64(r.ants.n / chunkLen)
	if record > chunks+100 {
		t.Errorf("recording %d clauses allocated %.0f times; want about one per chunk (%.0f) plus table growth", clauses, record, chunks)
	}

	r.RecordFinal([]sat.ClauseID{100 + clauses - 1})
	r.Core()
	if extract := testing.AllocsPerRun(5, func() { r.Core() }); extract != 1 {
		t.Errorf("a repeated Core allocated %.0f times, want 1 (the result)", extract)
	}
}

// proofTape captures a solve's proof events for replay.
type proofTape struct {
	ids   []sat.ClauseID
	ants  [][]sat.ClauseID
	final []sat.ClauseID
}

func (p *proofTape) RecordLearned(id sat.ClauseID, _ []lits.Lit, ants []sat.ClauseID) {
	p.ids = append(p.ids, id)
	p.ants = append(p.ants, slices.Clone(ants))
}

func (p *proofTape) RecordFinal(ants []sat.ClauseID) { p.final = slices.Clone(ants) }

func (p *proofTape) Forget([]sat.ClauseID) {}

var sinkCore []int

// BenchmarkRecorderExtract is the recorder's share of the benchmark's
// search_scratch in small: record the proof of add_w8 at depth 4 and
// extract its core.
func BenchmarkRecorderExtract(b *testing.B) {
	u, err := unroll.New(bench.AdderTwin(8, 0, 0), 0)
	if err != nil {
		b.Fatal(err)
	}
	f := u.Formula(4)
	tape := &proofTape{}
	opts := sat.Options{}
	opts.Recorder = tape
	if r := sat.New(f, opts).Solve(); r.Status != sat.Unsat {
		b.Fatalf("add_w8 depth 4 = %v, want Unsat", r.Status)
	}
	edges := 0
	for _, a := range tape.ants {
		edges += len(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder(f.NumClauses())
		for j, id := range tape.ids {
			rec.RecordLearned(id, nil, tape.ants[j])
		}
		rec.RecordFinal(tape.final)
		sinkCore = rec.Core()
	}
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "antecedents/s")
}

// TestCoreVarsOfReusesScratch: once a recorder has answered CoreVarsOf, it
// answers again without allocating — its marks, its result and the clause
// it decodes live in the recorder — whether the core's literals come from
// the formula (IDsOnly) or from the recorder's payload (Complete).
func TestCoreVarsOfReusesScratch(t *testing.T) {
	u, err := unroll.New(bench.AdderTwin(4, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := u.Formula(5)
	for _, payload := range []Payload{IDsOnly, Complete} {
		rec := NewRecorderWith(f.NumClauses(), payload)
		if res := sat.New(f, sat.Options{Recorder: rec}).Solve(); res.Status != sat.Unsat {
			t.Fatalf("add_w4 depth 5 = %v, want Unsat", res.Status)
		}
		ids := rec.Core()
		want := slices.Clone(rec.CoreVarsOf(ids, f, f.NumVars, nil))
		if allocs := testing.AllocsPerRun(5, func() { rec.CoreVarsOf(ids, f, f.NumVars, nil) }); allocs != 0 {
			t.Errorf("payload %d: a warmed CoreVarsOf allocated %.0f times, want none", payload, allocs)
		}
		if got := rec.CoreVarsOf(ids, f, f.NumVars, nil); !slices.Equal(got, want) || len(want) == 0 {
			t.Errorf("payload %d: %d core variables, the first call gave %d", payload, len(got), len(want))
		}
	}
}
