package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// TestScratchAllocProportionalToFinalFormula: a scratch check allocates in
// proportion to its final formula, not to the sum of every depth's. Twice
// the depth is twice the final formula and four times that sum: the bytes
// allocated across the check must grow like the former (measured 2.2x;
// re-encoding and re-allocating every depth, 3.5x).
func TestScratchAllocProportionalToFinalFormula(t *testing.T) {
	allocated := func(depth int) float64 {
		sess, err := engine.New(bench.GatedCounter(4, 10, 6, 16), 0, engine.WithBudgets(depth, 0))
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := sess.Check(context.Background())
		runtime.ReadMemStats(&m1)
		if err != nil || res.Verdict != engine.Holds || res.K != depth {
			t.Fatalf("depth %d: %v at %d (%v), want holds", depth, res.Verdict, res.K, err)
		}
		return float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	at10, at20 := allocated(10), allocated(20)
	if ratio := at20 / at10; ratio >= 2.8 {
		t.Errorf("%.1f MB to depth 10, %.1f MB to depth 20: %.2fx for twice the depth, want under 2.8x",
			at10/(1<<20), at20/(1<<20), ratio)
	}
}

// storageWatch is an Executor that races in process and, at the start and
// end of every race, looks at where the formula's literals and clause ends,
// each attempt's guidance and each attempt's formula-sized solver tables
// keep their elements: every new place is one allocation of that storage.
// One race at a time (a BMC check), so it needs no lock.
type storageWatch struct {
	engine.LocalExecutor
	at                  map[string]uintptr
	moves               map[string]int
	clauseRoom, litRoom int           // the formula's capacities at the last race
	solvers             []*sat.Solver // the last race's, by attempt
}

func newStorageWatch() *storageWatch {
	return &storageWatch{at: make(map[string]uintptr), moves: make(map[string]int)}
}

func (w *storageWatch) note(storage string, at uintptr) {
	if at != 0 && at != w.at[storage] {
		w.moves[storage]++
		w.at[storage] = at
	}
}

func (w *storageWatch) look(f *cnf.Formula, attempts []portfolio.Attempt) {
	w.note("clause ends", reflect.ValueOf(f.Ends).Pointer())
	w.note("literals", reflect.ValueOf(f.Lits).Pointer())
	w.clauseRoom, w.litRoom = cap(f.Ends), cap(f.Lits)
	w.solvers = w.solvers[:0]
	for _, a := range attempts {
		w.note(a.Name+" guidance", reflect.ValueOf(a.Opts.Guidance).Pointer())
		for table, at := range engine.SolverTables(a.Solver) {
			w.note(a.Name+" "+table, at)
		}
		w.solvers = append(w.solvers, a.Solver)
	}
}

func (w *storageWatch) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	w.look(f, attempts)
	defer w.look(f, attempts)
	return w.LocalExecutor.Race(q, f, attempts, jobs, stop)
}

// TestScratchStorageGrowsLogarithmically: over encode_scratch's 40-depth
// check, what a depth outgrows — the instance's literals and clause ends,
// the guidance,
// every formula-sized table of the solver — is allocated at most 7 times
// (when an outgrown table grew by an eighth, the arena alone was allocated
// 19 times), and ends exactly as large as depth 40 needs. And a solver that
// never loads holds nothing, though it is sized ahead like the others:
// raced one attempt at a time, the portfolio's first strategy decides every
// depth and the other three are skipped.
func TestScratchStorageGrowsLogarithmically(t *testing.T) {
	const depth, maxMoves = 40, 7
	w := newStorageWatch()
	gcnt := bench.GatedCounter(4, 10, 6, 16)
	sess, err := engine.New(gcnt, 0, engine.WithBudgets(depth, 0),
		engine.WithOrdering(core.OrderDynamic), engine.WithExecutor(w))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.Check(context.Background()); err != nil || res.Verdict != engine.Holds || res.K != depth {
		t.Fatalf("%v at %d (%v), want holds at %d", res.Verdict, res.K, err, depth)
	}
	for _, storage := range []string{"clause ends", "literals", "dynamic guidance", "dynamic ca.pages", "dynamic heap.pos"} {
		if w.moves[storage] == 0 {
			t.Fatalf("%s never seen: the watch looks at the wrong storage (%v)", storage, w.moves)
		}
	}
	t.Logf("allocations by storage: %v", w.moves)
	for storage, n := range w.moves {
		if n > maxMoves {
			t.Errorf("%s allocated %d times over %d depths, want at most %d", storage, n, depth, maxMoves)
		}
	}
	u, err := unroll.New(gcnt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, clauses, literals := u.Instance().Size(depth); w.clauseRoom != clauses || w.litRoom != literals {
		t.Errorf("the formula ends with room for %d clauses and %d literals, depth %d has %d and %d",
			w.clauseRoom, w.litRoom, depth, clauses, literals)
	}

	idle := newStorageWatch()
	sess, err = engine.New(bench.GatedCounter(3, 5, 1, 4), 0, engine.WithBudgets(8, 0),
		engine.WithPortfolio(portfolio.DefaultSet(), 1), engine.WithExecutor(idle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(idle.solvers) != len(portfolio.DefaultSet()) {
		t.Fatalf("%d attempts raced, want one per strategy", len(idle.solvers))
	}
	for i, s := range idle.solvers[1:] {
		for table, at := range engine.SolverTables(s) {
			if at != 0 {
				t.Errorf("attempt %d never loads, yet holds its %s", i+1, table)
			}
		}
	}
}

// warmWatch is storageWatch for the persistent lifetime: it hands each
// attempt's solver out through a wrapper that keeps it, and once the race
// has joined looks at where every solver handed out keeps the elements of
// its per-variable and per-literal tables, and where each attempt's
// guidance is. It counts the solvers each attempt handed out.
type warmWatch struct {
	storageWatch
	loads map[string]int
}

func newWarmWatch() *warmWatch {
	return &warmWatch{storageWatch: *newStorageWatch(), loads: make(map[string]int)}
}

func (w *warmWatch) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	solvers := make([]*sat.Solver, len(attempts))
	wrapped := slices.Clone(attempts)
	for i, a := range attempts {
		wrapped[i].Solver = func() *sat.Solver {
			solvers[i] = a.Solver()
			return solvers[i]
		}
	}
	res := w.LocalExecutor.RaceLive(q, wrapped, assumps, jobs, stop)
	for i, a := range attempts {
		w.note(a.Name+" guidance", reflect.ValueOf(a.Opts.Guidance).Pointer())
		if solvers[i] == nil {
			continue
		}
		w.loads[a.Name]++
		for table, at := range engine.SolverTables(solvers[i]) {
			// The arena also holds learnt clauses, and the watch pages hold
			// watchers: neither is sized by variables.
			if table != "ca.pages" && table != "watches.pages" {
				w.note(a.Name+" "+table, at)
			}
		}
	}
	return res
}

// TestWarmStorageGrowsLogarithmically: a persistent solver grows by the
// rule scratch solvers grow by. Over incremental_deep's 20-depth mix_w8
// check every per-variable and per-literal table of the solver, and the
// racer's guidance, moves at most ⌈log₂ 21⌉+1 = 6 times; 5 today. (When
// AddVars appended a variable at a time and the pool made a new guidance
// array at every depth, the watch table moved 11 times, the guidance 21.)
// And a racer that never loads is never handed a solver: raced one attempt
// at a time, the portfolio's first strategy decides every depth, and the
// other three's solvers are never made (the pool's side of this is in
// racer's TestLateStarterMatchesEagerFeed). The same two checks on a
// loopback worker's mirrors, which the pool's hint sizes, are remote's
// TestMirrorStorageGrowsLogarithmically.
func TestWarmStorageGrowsLogarithmically(t *testing.T) {
	const depth, maxMoves = 20, 6
	w := newWarmWatch()
	sess, err := engine.New(bench.ParityMixer(8, 3, 12), 0, engine.WithBudgets(depth, 0),
		engine.WithOrdering(core.OrderDynamic), engine.WithIncremental(), engine.WithExecutor(w))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.Check(context.Background()); err != nil || res.Verdict != engine.Holds || res.K != depth {
		t.Fatalf("%v at %d (%v), want holds at %d", res.Verdict, res.K, err, depth)
	}
	for _, storage := range []string{"dynamic guidance", "dynamic watches.lists", "dynamic reason", "dynamic heap.pos"} {
		if w.moves[storage] == 0 {
			t.Fatalf("%s never seen: the watch looks at the wrong storage (%v)", storage, w.moves)
		}
	}
	t.Logf("allocations by storage: %v", w.moves)
	for storage, n := range w.moves {
		if n > maxMoves {
			t.Errorf("%s allocated %d times over %d depths, want at most %d", storage, n, depth, maxMoves)
		}
	}

	idle := newWarmWatch()
	sess, err = engine.New(bench.GatedCounter(3, 5, 1, 4), 0, engine.WithBudgets(8, 0), engine.WithIncremental(),
		engine.WithPortfolio(portfolio.DefaultSet(), 1), engine.WithExecutor(idle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, name := range portfolio.DefaultSet().Names() {
		if n := idle.loads[name]; (i == 0) != (n > 0) {
			t.Errorf("strategy %d (%s) handed out a solver at %d depths; want every depth for the first, none for the rest", i, name, n)
		}
	}
}

// TestScratchPortfolioSharesStorageSafely races all four strategies over a
// conflict-heavy scratch check with one worker per strategy: every depth
// rewrites the one formula all of them load from and reloads the solvers
// the last depth's winner and cancelled losers left behind. Under -race
// this is the check that a race's workers are done with both when it
// returns; always, that a solver cancelled mid-search loads like any other —
// the verdict is that of the one-worker run, which races nothing.
func TestScratchPortfolioSharesStorageSafely(t *testing.T) {
	m, ok := bench.ByName("mix_w5")
	if !ok {
		t.Fatal("model mix_w5 missing")
	}
	const depth = 8
	check := func(jobs int) *engine.Result {
		return checkModel(t, m, engine.WithBudgets(depth, 0), engine.WithPortfolio(portfolio.DefaultSet(), jobs))
	}
	ref, res := check(1), check(0)
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("one worker per strategy: %v at %d, one worker: %v at %d", res.Verdict, res.K, ref.Verdict, ref.K)
	}
	cancelled := 0
	for _, n := range res.Telemetry.CancelledRuns {
		cancelled += n
	}
	if cancelled == 0 {
		t.Error("no racer was ever cancelled: the check no longer reloads a solver stopped mid-search")
	}
}

// TestSolverBytesNeverFall: every depth reports what the solvers hold for
// their clause databases, read from the structures. A persistent solver
// keeps every page it makes, so on a local incremental run the figure is
// never zero and never falls from one depth to the next.
func TestSolverBytesNeverFall(t *testing.T) {
	sess, err := engine.New(bench.ParityMixer(5, 2, 6), 0, engine.WithBudgets(12, 0),
		engine.WithOrdering(core.OrderDynamic), engine.WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Check(context.Background())
	if err != nil || len(res.PerDepth) < 10 {
		t.Fatalf("%v at %d over %d depths (%v), want at least 10 depths", res.Verdict, res.K, len(res.PerDepth), err)
	}
	var last int64
	for _, d := range res.PerDepth {
		if d.SolverBytes == 0 || d.SolverBytes < last {
			t.Fatalf("depth %d: the solver holds %d bytes, %d at the depth before", d.K, d.SolverBytes, last)
		}
		last = d.SolverBytes
	}
	t.Logf("the solver holds %d bytes at depth %d", last, res.PerDepth[len(res.PerDepth)-1].K)
}

// TestLearntsReported: every depth reports the learnt clauses its solvers
// hold as it ends, on every local shape and query. A search that learns
// anything leaves some behind, so each shape reports them at some depth.
func TestLearntsReported(t *testing.T) {
	m := goldenModel(t, "mix_w5")
	for name, opts := range goldenShapes() {
		learnts := 0
		checkModel(t, m, append([]engine.Option{engine.WithBudgets(6, 0),
			engine.WithProgress(func(e engine.Event) {
				if e.Kind == engine.DepthFinished {
					learnts = max(learnts, e.Depth.Learnts)
				}
			})}, opts...)...)
		if learnts == 0 {
			t.Errorf("%s: no depth reports a learnt clause", name)
		}
	}
}
