package sat

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/unroll"
)

// unrolled builds the length-k BMC instance of property 0 of c.
func unrolled(tb testing.TB, c *circuit.Circuit, k int) *cnf.Formula {
	tb.Helper()
	u, err := unroll.New(c, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return u.Formula(k)
}

var sinkSolver *Solver

// BenchmarkLoad is the benchmark's encode_scratch in small: New over one
// depth of gcnt_m10_big.
func BenchmarkLoad(b *testing.B) {
	f := unrolled(b, bench.GatedCounter(4, 10, 6, 16), 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSolver = New(f, Defaults())
	}
	b.ReportMetric(float64(len(f.Clauses))*float64(b.N)/b.Elapsed().Seconds(), "clauses/s")
}

// BenchmarkPropagateAdder is search_scratch in small: add_w8 at depth 4,
// where propagation is most of the solve.
func BenchmarkPropagateAdder(b *testing.B) {
	f := unrolled(b, bench.AdderTwin(8, 0, 0), 4)
	b.ReportAllocs()
	b.ResetTimer()
	var props int64
	for i := 0; i < b.N; i++ {
		r := New(f, Defaults()).Solve()
		if r.Status != Unsat {
			b.Fatalf("add_w8 depth 4 = %v, want Unsat", r.Status)
		}
		props += r.Stats.Implications
	}
	b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
}

// mallocs counts the heap allocations of one call of f, which, unlike
// testing.AllocsPerRun, is not warmed up by a call before it.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestLoadAllocsBounded pins the bulk load: New allocates per solver, not
// per clause, Load into a solver that has held the formula before allocates
// nothing to speak of, a solver hinted (Grow) for depth 7 loads every depth
// from 3 to 7 without allocating, and AddClause into a solver that has
// grown allocates only when the arena or a watch list doubles.
func TestLoadAllocsBounded(t *testing.T) {
	const perSolver = 32
	gcnt := bench.GatedCounter(4, 10, 6, 16)
	for _, k := range []int{3, 7} {
		f := unrolled(t, gcnt, k)
		if f.NumClauses() < 20000 {
			t.Fatalf("depth %d has %d clauses, want at least 20000", k, f.NumClauses())
		}
		allocs := testing.AllocsPerRun(3, func() { sinkSolver = New(f, Defaults()) })
		if allocs >= perSolver {
			t.Errorf("New over %d clauses: %.0f allocations, want fewer than %d", f.NumClauses(), allocs, perSolver)
		}
		s := New(f, Defaults())
		if reload := testing.AllocsPerRun(3, func() { s.Load(f, Defaults()) }); reload >= 4 {
			t.Errorf("Load over %d clauses into a solver that has held them: %.0f allocations, want fewer than 4", f.NumClauses(), reload)
		}
	}

	u, err := unroll.New(gcnt, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := u.Instance()
	hinted := new(Solver)
	hinted.Grow(in.Size(7))
	hinted.Load(in.Extend(3), Defaults()) // makes every table, at depth 7's size
	for k := 3; k <= 7; k++ {
		f := in.Extend(k)
		if n := mallocs(func() { hinted.Load(f, Defaults()) }); n != 0 {
			t.Errorf("Load of depth %d into a solver hinted for depth 7: %d allocations, want none", k, n)
		}
	}

	// Ternary clauses over 16 variables, each with a positive literal, so
	// nothing is ever implied and every clause is attached.
	const batch = 1000
	r := rng(7)
	s := New(cnf.New(0), Defaults())
	add := func() {
		for i := 0; i < batch; i++ {
			a := r.intn(16)
			b, c := (a+1+r.intn(7))%16, (a+8+r.intn(8))%16 // three different variables
			s.AddClause(cnf.Clause{
				lits.PosLit(lits.Var(a + 1)),
				lits.MkLit(lits.Var(b+1), r.intn(2) == 0),
				lits.MkLit(lits.Var(c+1), r.intn(2) == 0),
			})
		}
	}
	for i := 0; i < 4; i++ {
		add()
	}
	if perClause := testing.AllocsPerRun(1, add) / batch; perClause >= 0.1 {
		t.Errorf("AddClause into a grown solver: %.3f allocations per clause, want under 0.1", perClause)
	}
}

// TestWatchSlabIsolation checks the slab New carves the watch lists from:
// every list is full, so growing one moves it instead of writing into the
// list that follows it.
func TestWatchSlabIsolation(t *testing.T) {
	f := cnf.New(4)
	f.Add(1, 2)
	f.Add(-1, 3)
	f.Add(1, -2, 4)
	f.Add(2, 3, 4)
	f.Add(-3, -4)
	s := New(f, Defaults())

	before := make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		if cap(ws) != len(ws) {
			t.Errorf("list %d: capacity %d past its %d watchers reaches into the next list", i, cap(ws), len(ws))
		}
		before[i] = append([]watcher(nil), ws...)
	}

	// (x1 ∨ x2 ∨ x3) watches x1 and x2, whose lists lie first in the slab.
	s.AddClause(cnf.NewClause(1, 2, 3))
	grown := map[int]bool{lits.NegLit(1).Index(): true, lits.NegLit(2).Index(): true}
	for i, ws := range s.watches {
		want := before[i]
		if grown[i] {
			if len(ws) != len(want)+1 {
				t.Fatalf("list %d has %d watchers, want %d", i, len(ws), len(want)+1)
			}
			ws = ws[:len(want)]
		}
		if !slices.Equal(ws, want) {
			t.Errorf("list %d changed: %v, was %v", i, ws, want)
		}
	}
}

// TestChaScoreSeedingOneRule: a literal's initial cha_score is its
// occurrence count in the clauses as stored, whichever way they came in. New
// used to count the raw clauses instead — duplicates twice, tautologies
// although it then dropped them — so the same clause set ordered decisions
// differently when loaded whole than when added clause by clause.
func TestChaScoreSeedingOneRule(t *testing.T) {
	f := cnf.New(3)
	f.Add(1, 1, 2)  // raw: x1 twice
	f.Add(3, -3, 3) // a tautology: contributes nothing
	f.Add(2, 3)
	// Stored: (x1 x2) (x2 x3), so x2 leads; counted raw, x3 would.

	loaded := New(f, Defaults())
	added := New(cnf.New(0), Defaults())
	for _, c := range f.Clauses {
		added.AddClause(c)
	}
	if !slices.Equal(loaded.chaScore, added.chaScore) {
		t.Errorf("cha_score differs by load path:\n New      %v\n AddClause %v", loaded.chaScore, added.chaScore)
	}
	first, want := loaded.pickBranch(), lits.PosLit(2)
	if again := added.pickBranch(); first != want || again != want {
		t.Errorf("first decision: New %v, AddClause %v, want %v both ways", first, again, want)
	}
}

// clauseView is what a clause is to the rest of the solver.
type clauseView struct {
	id    ClauseID
	flags uint32
	act   int64
	lits  []uint32
}

func (s *Solver) view(c cref) clauseView {
	v := clauseView{id: s.ca.id(c), flags: s.ca.mem[c+hdrFlags], lits: slices.Clone(s.ca.lits(c))}
	if s.ca.learnt(c) {
		v.act = s.ca.act(c)
	}
	return v
}

func (v clauseView) equal(w clauseView) bool {
	return v.id == w.id && v.flags == w.flags && v.act == w.act && slices.Equal(v.lits, w.lits)
}

// TestCompactRelocatesEveryReference stops a search half way, deletes
// learnt clauses as reduceDB would, and compares everything that refers to
// a clause — learnts, watchers, reasons — before and after compaction by
// what it refers to.
func TestCompactRelocatesEveryReference(t *testing.T) {
	opts := Defaults()
	opts.MaxConflicts = 700
	s := New(pigeonhole(8, 7), opts)
	if r := s.Solve(); r.Status != Unknown {
		t.Fatalf("status %v, want the search stopped by its budget", r.Status)
	}
	if s.decisionLevel() == 0 || s.compactions != 0 {
		t.Fatalf("want an undisturbed arena and a trail with reasons above level 0 (level %d, %d compactions)", s.decisionLevel(), s.compactions)
	}

	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if i%3 == 0 && s.ca.size(c) > 2 && !s.locked(c) {
			s.detach(c)
			s.ca.free(c)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	if s.ca.wasted == 0 {
		t.Fatal("nothing deleted")
	}

	var all, learnts, reasons []clauseView
	var watching [][]clauseView
	for c := cref(0); int(c) < len(s.ca.mem); c += s.ca.words(c) {
		if !s.ca.deleted(c) {
			all = append(all, s.view(c))
		}
	}
	for _, c := range s.learnts {
		learnts = append(learnts, s.view(c))
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			reasons = append(reasons, s.view(r))
		}
	}
	for _, ws := range s.watches {
		var vs []clauseView
		for _, w := range ws {
			vs = append(vs, s.view(w.c))
		}
		watching = append(watching, vs)
	}
	liveWords := len(s.ca.mem) - s.ca.wasted

	s.compact()

	if len(s.ca.mem) != liveWords || s.ca.wasted != 0 {
		t.Fatalf("arena holds %d words with %d wasted, want %d and 0", len(s.ca.mem), s.ca.wasted, liveWords)
	}
	same := func(what string, got func(i int) clauseView, want []clauseView) {
		t.Helper()
		for i, w := range want {
			if g := got(i); !g.equal(w) {
				t.Fatalf("%s %d: %+v, was %+v", what, i, g, w)
			}
		}
	}
	c := cref(0)
	same("clause", func(int) clauseView { v := s.view(c); c += s.ca.words(c); return v }, all)
	if int(c) != len(s.ca.mem) {
		t.Fatalf("walk ends at %d of %d words", c, len(s.ca.mem))
	}
	same("learnt", func(i int) clauseView { return s.view(s.learnts[i]) }, learnts)
	i := 0
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			if g := s.view(r); !g.equal(reasons[i]) {
				t.Fatalf("reason of %v: %+v, was %+v", l, g, reasons[i])
			}
			i++
		}
	}
	for li, ws := range s.watches {
		if len(ws) != len(watching[li]) {
			t.Fatalf("list %d has %d watchers, had %d", li, len(ws), len(watching[li]))
		}
		same("watcher", func(i int) clauseView { return s.view(ws[i].c) }, watching[li])
	}

	// And the search goes on from here to the right answer.
	s.opts.MaxConflicts = 0
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("after compaction: %v, want Unsat", r.Status)
	}
}

// stopAfter closes a solver's Stop channel once it has learnt n clauses, so
// a search is interrupted at the same conflict every time.
type stopAfter struct {
	n    int
	stop chan struct{}
}

func (r *stopAfter) RecordLearned(ClauseID, []lits.Lit, []ClauseID) {
	if r.n--; r.n == 0 {
		close(r.stop)
	}
}
func (r *stopAfter) RecordFinal([]ClauseID) {}
func (r *stopAfter) Forget([]ClauseID)      {}

// TestLoadClearsTruthTable: a search stopped by Options.Stop leaves its
// trail, many levels deep, in the truth table. Loading a smaller formula
// over it must leave a table of the new length that holds the new formula's
// units and nothing else — no value of the old trail inside it — and the
// search over it is the one a new solver runs.
func TestLoadClearsTruthTable(t *testing.T) {
	rec := &stopAfter{n: 300, stop: make(chan struct{})}
	opts := Defaults()
	opts.Stop, opts.StopCheckEvery, opts.Recorder = rec.stop, 1, rec
	s := New(pigeonhole(9, 8), opts)
	if r := s.Solve(); r.Status != Interrupted {
		t.Fatalf("status %v, want the search interrupted", r.Status)
	}
	if s.decisionLevel() < 3 || len(s.trail) < 20 {
		t.Fatalf("stopped at level %d with %d literals assigned, want a deep trail", s.decisionLevel(), len(s.trail))
	}
	checkTruthTable(t, s, "interrupted")
	held := cap(s.vals)

	for _, small := range []*cnf.Formula{pigeonhole(4, 4), randomFormula(11, 9, 14, 3)} {
		s.Load(small, Defaults())
		if cap(s.vals) != held {
			t.Fatalf("the table moved: room for %d literals, had %d", cap(s.vals), held)
		}
		checkTruthTable(t, s, "loaded") // PHP(4,4) has no unit: all zero
		got, want := s.Solve(), New(small, Defaults()).Solve()
		checkTruthTable(t, s, "solved")
		got.Stats.SolveTime, want.Stats.SolveTime = 0, 0
		if got.Status != want.Status || got.Stats != want.Stats || !slices.Equal(got.Model, want.Model) {
			t.Fatalf("loaded solver returned\n%+v\na new one\n%+v", got, want)
		}
	}
}

// TestAddVarsGrowsTruthTable: growing keeps what is assigned and adds
// unassigned literals, whether the table grows into room an earlier, larger
// formula left full of its own values or has to move.
func TestAddVarsGrowsTruthTable(t *testing.T) {
	big := cnf.New(40)
	for v := 1; v <= 40; v++ {
		big.Add(-v) // the stale values: every literal of 40 variables assigned
	}
	s := New(big, Defaults())
	units := cnf.New(3)
	units.Add(1)
	units.Add(-3)
	s.Load(units, Defaults())

	for _, n := range []int{25, 4 * 40} { // inside the old table, then past it
		fits := 2*n+2 <= cap(s.vals)
		at, before := &s.vals[0], slices.Clone(s.vals)
		s.AddVars(n)
		if moved := &s.vals[0] != at; moved == fits {
			t.Fatalf("AddVars(%d): table moved: %v, had room: %v — the case is not what it says", n, moved, fits)
		}
		checkTruthTable(t, s, "grown")
		if !slices.Equal(s.vals[:len(before)], before) {
			t.Fatalf("AddVars(%d) rewrote existing values:\n%v\nwas\n%v", n, s.vals[:len(before)], before)
		}
	}
	if s.vals[lits.PosLit(1).Index()] != 1 || s.vals[lits.NegLit(3).Index()] != 1 || len(s.trail) != 2 {
		t.Fatalf("the loaded units are gone: trail %v", s.trail)
	}
	if r := s.Solve(); r.Status != Sat || r.Model.Value(1) != lits.True || r.Model.Value(3) != lits.False {
		t.Fatalf("status %v, model %v", r.Status, r.Model)
	}
}
