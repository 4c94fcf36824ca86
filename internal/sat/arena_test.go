package sat

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

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
		sinkSolver = New(f, Options{})
	}
	b.ReportMetric(float64(f.NumClauses())*float64(b.N)/b.Elapsed().Seconds(), "clauses/s")
}

// BenchmarkPropagateAdder is search_scratch in small: add_w8 at depth 4,
// where propagation is most of the solve.
func BenchmarkPropagateAdder(b *testing.B) {
	f := unrolled(b, bench.AdderTwin(8, 0, 0), 4)
	b.ReportAllocs()
	b.ResetTimer()
	var props int64
	for i := 0; i < b.N; i++ {
		r := New(f, Options{}).Solve()
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
	n, _ := allocated(f)
	return n
}

// allocated is mallocs with the bytes those allocations took.
func allocated(f func()) (n, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// arrays is the set of page arrays a holds, in its table or spare.
func (a *arena) arrays() map[*uint32]bool {
	out := make(map[*uint32]bool)
	for _, pgs := range [][][]uint32{a.pages, a.spare} {
		for _, pg := range pgs {
			if cap(pg) > 0 {
				out[unsafe.SliceData(pg)] = true
			}
		}
	}
	return out
}

// slotWatch is a proof recorder that checks, at every learnt clause, that
// each slot of the arena's page table holds the array it held when first
// seen, and notes how many slots the table reached.
type slotWatch struct {
	t     *testing.T
	s     *Solver
	first []*uint32
}

func (w *slotWatch) RecordLearned(id ClauseID, _ []lits.Lit, _ []ClauseID) {
	for p, pg := range w.s.ca.pages {
		if p == len(w.first) {
			w.first = append(w.first, unsafe.SliceData(pg))
		}
		if at := unsafe.SliceData(pg); at != w.first[p] {
			w.t.Fatalf("learning clause %d: slot %d holds %p, was made with %p", id, p, at, w.first[p])
		}
	}
}
func (w *slotWatch) RecordFinal([]ClauseID) {}
func (w *slotWatch) Forget([]ClauseID)      {}

// TestArenaNeverCopies: growing the clause store opens a page and copies
// nothing. Pushing clauses allocates the pages it opens and the page table,
// nothing else, and over a search whose arena spans at least four pages
// every page's array stays in the slot it was made for.
func TestArenaNeverCopies(t *testing.T) {
	var a arena
	r := rng(3)
	ls := make([]lits.Lit, 80)
	for i := range ls {
		ls[i] = lits.PosLit(lits.Var(i + 1))
	}
	made := make([]*uint32, 0, 64)
	opened, tableMoves := 0, 0
	n := mallocs(func() {
		for id := ClauseID(0); len(a.pages) < 6; id++ {
			slots, table := len(a.pages), cap(a.pages)
			var flags uint32
			if r.intn(2) == 0 {
				flags = flagLearnt
			}
			a.push(id, flags, int64(id), ls[:1+r.intn(len(ls))])
			if len(a.pages) != slots {
				opened++
				made = append(made, unsafe.SliceData(a.pages[len(a.pages)-1]))
			}
			if cap(a.pages) != table {
				tableMoves++
			}
		}
	})
	if n != uint64(opened+tableMoves) {
		t.Errorf("pushing clauses over %d pages: %d allocations, want the %d pages opened and %d page table moves", len(a.pages), n, opened, tableMoves)
	}
	for p, pg := range a.pages {
		if at := unsafe.SliceData(pg); at != made[p] || cap(pg) != pageWords {
			t.Errorf("slot %d holds %p of %d words, the page opened there was %p", p, at, cap(pg), made[p])
		}
	}

	noReduction := tuned(func(tu *tuning) { tu.maxLearntFrac = 1e9 }) // the learnt clauses pile up
	s := New(pigeonhole(10, 9), noReduction)
	w := &slotWatch{t: t, s: s}
	s.opts.Recorder, s.recording = w, true
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("PHP(10,9) = %v, want Unsat", r.Status)
	}
	if len(w.first) < 4 {
		t.Fatalf("the arena reached %d pages, want at least 4: the test no longer exercises what it is for", len(w.first))
	}
}

// TestLongClause: a clause longer than a page goes in through Load and
// AddClause onto a page of its own, is watched and propagates, keeps its
// page while a compaction moves the clauses below it, and takes the same
// page again when a Load reuses the arena.
func TestLongClause(t *testing.T) {
	n := pageWords + 1
	long := make(cnf.Clause, n)
	for i := range long {
		long[i] = lits.PosLit(lits.Var(i + 1))
	}
	// Units falsify every literal but the last, the watched ones last, so
	// the clause's one propagation implies x_n.
	var units []cnf.Clause
	for v := n - 1; v >= 3; v-- {
		units = append(units, cnf.Clause{lits.NegLit(lits.Var(v))})
	}
	units = append(units, cnf.Clause{lits.NegLit(1)}, cnf.Clause{lits.NegLit(2)})
	f := cnf.New(n)
	f.AddClause(long)
	for _, u := range units {
		f.AddClause(u)
	}

	// where finds the long clause and checks its page is its own.
	where := func(s *Solver, how string) cref {
		t.Helper()
		for c, k := range s.ca.clauses {
			if k.size() != n || k.deleted() {
				continue
			}
			p := c >> pageShift
			if c&pageMask != 0 || len(s.ca.pages[p]) != k.words() || s.ca.pages[p+1] != nil {
				t.Fatalf("%s: the long clause is at offset %d of slot %d, its page holds %d words, the next slot %d",
					how, c&pageMask, p, len(s.ca.pages[p]), cap(s.ca.pages[p+1]))
			}
			watched := 0
			for _, ws := range s.watches {
				for _, w := range ws {
					if w.c == c {
						watched++
					}
				}
			}
			if watched != 2 {
				t.Fatalf("%s: the long clause has %d watchers, want 2", how, watched)
			}
			return c
		}
		t.Fatalf("%s: no clause of %d literals in the arena", how, n)
		return crefUndef
	}
	implies := func(s *Solver, how string) {
		t.Helper()
		r := s.Solve()
		if r.Status != Sat || r.Model.Value(lits.Var(n)) != lits.True || r.Model.Value(1) != lits.False {
			t.Fatalf("%s: %v, x%d = %v, want Sat with x%d true", how, r.Status, n, r.Model.Value(lits.Var(n)), n)
		}
	}

	loaded := New(f, Options{})
	where(loaded, "Load")
	implies(loaded, "Load")

	added := New(cnf.New(n), Options{})
	for _, c := range f.Clauses {
		added.AddClause(c)
	}
	where(added, "AddClause")
	implies(added, "AddClause")

	// Clauses below the long clause, every other one deleted, so the
	// compaction moves clauses below it.
	s := New(cnf.New(n+200), Options{})
	const below = 100
	for i := 0; i < below; i++ {
		s.AddClause(cnf.Clause{lits.PosLit(lits.Var(n + 2*i + 1)), lits.PosLit(lits.Var(n + 2*i + 2))})
	}
	s.AddClause(long)
	c := where(s, "AddClause over others")
	before := s.view(c)
	page := unsafe.SliceData(s.ca.pages[c>>pageShift])
	var short []cref
	for c, k := range s.ca.clauses {
		if k.size() == 2 {
			short = append(short, c)
		}
	}
	for i, c := range short {
		if i%2 == 0 {
			s.detach(c)
			s.ca.free(s.ca.at(c))
		}
	}
	s.compact()
	if moved := short[1]; s.moved(moved) == moved {
		t.Fatal("the compaction moved nothing below the long clause")
	}
	c = where(s, "compacted")
	if got := s.view(c); !got.equal(before) || unsafe.SliceData(s.ca.pages[c>>pageShift]) != page {
		t.Fatalf("the compaction changed the long clause or its page")
	}
	for _, u := range units {
		s.AddClause(u)
	}
	implies(s, "AddClause and compaction")

	s.Load(f, Options{})
	if c = where(s, "reloaded"); unsafe.SliceData(s.ca.pages[c>>pageShift]) != page {
		t.Errorf("Load made the long clause a new page instead of taking its spare")
	}
	implies(s, "reloaded")
}

// TestLoadAllocsBounded pins the bulk load: New allocates per solver, not
// per clause, Load into a solver that has held the formula before allocates
// nothing to speak of, a solver hinted (Grow) for depth 7 loads every depth
// from 3 to 7 allocating only the arena pages its new words need and
// letting go of none it held, and AddClause into a solver that has grown
// allocates only when the arena opens a page or a watch list doubles.
func TestLoadAllocsBounded(t *testing.T) {
	const perSolver = 32
	gcnt := bench.GatedCounter(4, 10, 6, 16)
	for _, k := range []int{3, 7} {
		f := unrolled(t, gcnt, k)
		if f.NumClauses() < 20000 {
			t.Fatalf("depth %d has %d clauses, want at least 20000", k, f.NumClauses())
		}
		allocs := testing.AllocsPerRun(3, func() { sinkSolver = New(f, Options{}) })
		if allocs >= perSolver {
			t.Errorf("New over %d clauses: %.0f allocations, want fewer than %d", f.NumClauses(), allocs, perSolver)
		}
		s := New(f, Options{})
		if reload := testing.AllocsPerRun(3, func() { s.Load(f, Options{}) }); reload >= 4 {
			t.Errorf("Load over %d clauses into a solver that has held them: %.0f allocations, want fewer than 4", f.NumClauses(), reload)
		}
	}

	u, err := unroll.New(gcnt, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := u.Instance()
	hinted := new(Solver)
	vars, clauses, _ := in.Size(7)
	hinted.Grow(vars, clauses)
	hinted.Load(in.Extend(3), Options{}) // makes every other table, at depth 7's size
	for k := 3; k <= 7; k++ {
		f := in.Extend(k)
		held := hinted.ca.arrays()
		n, bytes := allocated(func() { hinted.Load(f, Options{}) })
		now := hinted.ca.arrays()
		for p := range held {
			if !now[p] {
				t.Errorf("Load of depth %d let go of a page it held", k)
			}
		}
		// Beyond its new pages only the page table and the spare list may
		// grow, by a few headers.
		opened := uint64(len(now) - len(held))
		if n > opened+2 || bytes > opened*4*pageWords+uint64(64*len(now)) {
			t.Errorf("Load of depth %d into a solver hinted for depth 7: %d allocations of %d bytes, for %d new pages", k, n, bytes, opened)
		}
	}

	// Ternary clauses over 16 variables, each with a positive literal, so
	// nothing is ever implied and every clause is attached.
	const batch = 1000
	r := rng(7)
	s := New(cnf.New(0), Options{})
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
	s := New(f, Options{})

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

	loaded := New(f, Options{})
	added := New(cnf.New(0), Options{})
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
	k := s.ca.at(c)
	v := clauseView{id: k.id(), flags: k[hdrFlags], lits: slices.Clone(k.lits())}
	if k.learnt() {
		v.act = k.act()
	}
	return v
}

func (v clauseView) equal(w clauseView) bool {
	return v.id == w.id && v.flags == w.flags && v.act == w.act && slices.Equal(v.lits, w.lits)
}

// TestCompactRelocatesEveryReference stops a search half way, deletes
// learnt clauses as reduceDB would, and compares everything that refers to
// a clause — learnts, watchers, reasons — before and after compaction by
// what it refers to. The arena spans three pages, so clauses move across
// page boundaries.
func TestCompactRelocatesEveryReference(t *testing.T) {
	opts := tuned(func(tu *tuning) { tu.maxLearntFrac = 1e9 }) // no reduction: the arena is as the search left it
	opts.MaxConflicts = 3000
	s := New(pigeonhole(9, 8), opts)
	if r := s.Solve(); r.Status != Unknown {
		t.Fatalf("status %v, want the search stopped by its budget", r.Status)
	}
	if s.decisionLevel() == 0 || s.compactions != 0 || len(s.ca.pages) < 3 {
		t.Fatalf("want an undisturbed arena of at least 3 pages and a trail with reasons above level 0 (level %d, %d compactions, %d pages)",
			s.decisionLevel(), s.compactions, len(s.ca.pages))
	}

	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if k := s.ca.at(c); i%3 == 0 && k.size() > 2 && !s.locked(c, k) {
			s.detach(c)
			s.ca.free(k)
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
	for c, k := range s.ca.clauses {
		if !k.deleted() {
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
	liveWords := s.ca.used() - s.ca.wasted
	pageOf := make(map[ClauseID]cref)
	for _, c := range s.learnts {
		pageOf[s.ca.at(c).id()] = c >> pageShift
	}

	s.compact()

	jumped := 0
	for _, c := range s.learnts {
		if pageOf[s.ca.at(c).id()] != c>>pageShift {
			jumped++
		}
	}
	if jumped == 0 {
		t.Fatal("no clause moved to another page")
	}

	if s.ca.used() != liveWords || s.ca.wasted != 0 {
		t.Fatalf("arena holds %d words with %d wasted, want %d and 0", s.ca.used(), s.ca.wasted, liveWords)
	}
	same := func(what string, got func(i int) clauseView, want []clauseView) {
		t.Helper()
		for i, w := range want {
			if g := got(i); !g.equal(w) {
				t.Fatalf("%s %d: %+v, was %+v", what, i, g, w)
			}
		}
	}
	var after []clauseView
	for c := range s.ca.clauses {
		after = append(after, s.view(c))
	}
	if len(after) != len(all) {
		t.Fatalf("the arena holds %d clauses, %d were live", len(after), len(all))
	}
	same("clause", func(i int) clauseView { return after[i] }, all)
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
	opts := tuned(func(tu *tuning) { tu.pollEvery = 1 })
	opts.Stop, opts.Recorder = rec.stop, rec
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
		s.Load(small, Options{})
		if cap(s.vals) != held {
			t.Fatalf("the table moved: room for %d literals, had %d", cap(s.vals), held)
		}
		checkTruthTable(t, s, "loaded") // PHP(4,4) has no unit: all zero
		got, want := s.Solve(), New(small, Options{}).Solve()
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
	s := New(big, Options{})
	units := cnf.New(3)
	units.Add(1)
	units.Add(-3)
	s.Load(units, Options{})

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
