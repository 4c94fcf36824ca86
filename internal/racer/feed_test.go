package racer

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// TestLateStarterMatchesEagerFeed is the lazy load's defining property: a
// racer that first gets to search at depth j, having been skipped j times,
// is the solver it would have been had it taken every frame and every bus
// clause the moment they appeared. Two strategies share one worker slot;
// the first decides the shallow depths and then runs out of its per-depth
// conflict budget, which is when the second first races (depth 4 here, and
// it falls behind again whenever the first decides a later depth). Its
// verdicts, per-depth search statistics and core sizes must equal those of
// a reference solver this test feeds eagerly, with plain AddClause and
// ImportClause in boundary order. A shortcut that loads only the racer
// that has always won passes every test in which the first racer decides
// every depth, and fails here.
//
// The late racer runs the dynamic and the time-axis strategy, in a pool
// sized ahead for the check: once it has loaded, each depth's guidance is
// written over the array its solver holds, also while it is behind and
// taking bus clauses into its inbox. Both strategies score variables of
// the frames a catch-up adds (time-axis every one, dynamic those in the
// cores of depths the racer missed), so a solver that padded that array as
// it added them would zero those scores: the guidance it searched under
// must be its strategy's for the depth, as the reference's is, which gets
// a new array at every depth. Before it first races, the racer holds no
// solver and one guidance array, written over at every depth like a loaded
// racer's.
func TestLateStarterMatchesEagerFeed(t *testing.T) {
	for _, late := range []core.Strategy{core.OrderDynamic, core.OrderTimeAxis} {
		t.Run(late.String(), func(t *testing.T) { lateStarterMatchesEagerFeed(t, late) })
	}
}

func lateStarterMatchesEagerFeed(t *testing.T, late core.Strategy) {
	const (
		budget   = 150
		maxDepth = 8
	)
	early := core.OrderVSIDS
	u, err := unroll.New(bench.ParityMixer(5, 3, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := DeltaSource(u.Delta())

	// What the early racer put on the bus at each boundary.
	exports := map[int][]cnf.Clause{}
	opts := sat.Options{}
	opts.MaxConflicts = budget
	board := core.NewScoreBoard(core.WeightedSum)
	pool := NewPool(src, Config{
		Strategies: portfolio.StrategySet{early, late},
		Jobs:       1,
		Opts:       opts,
		Board:      board,
		Divisor:    core.SwitchDivisor,
		Record:     true,
		MaxDepth:   maxDepth,
		Exchange: ExchangeOptions{Enabled: true, OnExport: func(k int, from string, clauses []cnf.Clause) {
			if from == early.String() {
				exports[k] = clauses
			}
		}},
	})
	lateRacer := pool.racers[1]

	// The reference runs under the late racer's options and is always
	// current: every frame as it is built, the early racer's exports at
	// every boundary. It searches exactly when the late racer does.
	rec := core.NewRecorderWith(0, core.WithLeaves)
	opts.Recorder = rec
	ref := sat.New(cnf.New(0), opts)

	first, raced, skippedAgain, totalLits := -1, 0, 0, 0
	var idleGuidance []float64 // the idle late racer's array at the last depth
	for k := 0; k <= maxDepth; k++ {
		frame := src.Frame(k)
		totalLits += frame.NumLiterals()
		ref.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			rec.AddLeaf(ref.AddClause(cl), cl)
		}
		// The board as the depth's race will see it.
		g, switchAfter := late.Guidance(board, layout(src, k), totalLits, core.SwitchDivisor, nil)

		out := pool.RaceDepth(k)
		got := out.Race.Outcomes[1]
		switch {
		case got.Skipped && first < 0:
			if fed := lateRacer.feed.Fed(); fed != 0 || lateRacer.feed.Solver != nil {
				t.Fatalf("depth %d: the late racer never raced, yet holds %d frames or a solver (%v)",
					k, fed, lateRacer.feed.Solver != nil)
			}
			// It holds one guidance array, the depth's written over the last
			// depth's unless that no longer fits.
			at := reflect.ValueOf(lateRacer.guidance).Pointer()
			if !slices.Equal(lateRacer.guidance, g) || (cap(idleGuidance) >= len(g) && at != reflect.ValueOf(idleGuidance).Pointer()) {
				t.Fatalf("depth %d: the idle late racer's guidance is not its strategy's for the depth, or a new array where the last one fit", k)
			}
			idleGuidance = lateRacer.guidance
		case got.Skipped:
			// The early racer decided this one: the late racer falls behind
			// again and takes this boundary's clauses with its next frame.
			skippedAgain++
		default:
			if first < 0 {
				first = k
			}
			raced++
			if !slices.Equal(lateRacer.guidance, g) {
				t.Fatalf("depth %d: the late racer searched under guidance other than its strategy's for the depth", k)
			}
			ref.SetGuidance(g, switchAfter)
			want := ref.SolveAssuming([]lits.Lit{src.Assumption(k)})
			got.Stats.SolveTime, want.Stats.SolveTime = 0, 0
			if got.Status != want.Status || got.Stats != want.Stats {
				t.Fatalf("depth %d (first raced at %d): late racer %v %+v, eagerly fed reference %v %+v",
					k, first, got.Status, got.Stats, want.Status, want.Stats)
			}
			if out.Race.Winner != 1 || want.Status != sat.Unsat {
				t.Fatalf("depth %d: want the late racer to decide Unsat, got winner %d, %v", k, out.Race.Winner, want.Status)
			}
			ids := rec.Core()
			vars := rec.CoreVarsOf(ids, nil, frame.NumVars, auxOf(src))
			if out.CoreClauses != len(ids) || out.CoreVars != len(vars) {
				t.Fatalf("depth %d: late racer's core has %d clauses over %d variables, the reference's %d over %d",
					k, out.CoreClauses, out.CoreVars, len(ids), len(vars))
			}
			rec.ResetFinal()
		}
		for _, cl := range exports[k] {
			if id, ok := ref.ImportClause(cl); ok {
				rec.AddLeaf(id, cl)
			}
		}
	}
	if first < 2 || raced < 3 || skippedAgain == 0 {
		t.Fatalf("the late racer first raced at depth %d, raced %d depths and fell behind again at %d; the test needs it skipped at least twice, racing at least three times, and behind again at least once",
			first, raced, skippedAgain)
	}
	t.Logf("late racer first raced at depth %d, raced %d depths, fell behind again at %d, imported %d bus clauses",
		first, raced, skippedAgain, lateRacer.feed.Imported())
	if lateRacer.feed.Imported() == 0 {
		t.Fatal("the late racer imported nothing: the interleaving of frames and bus clauses went untested")
	}
}

// TestForeignClausesBecomeLeaves: clauses a race brings back from somewhere
// else (portfolio.RaceResult.Foreign — a fleet's workers learned them) enter
// through the pool's one import path. Under a healthy fleet no local racer
// is loaded, so they wait; when a fallback loads a racer they go in at the
// boundaries they arrived at, are counted as imported at that depth, and
// are leaves of the racer's recorder with their literals — a core that
// names one resolves it to variables. The first racer takes none.
func TestForeignClausesBecomeLeaves(t *testing.T) {
	u, err := unroll.New(bench.Counter(4, 9, 2, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := DeltaSource(u.Delta())
	// Sound by construction: each foreign clause is a frame clause of its
	// depth weakened by one literal of a variable the clause does not use.
	foreign := make([][]cnf.Clause, 2)
	for k := range foreign {
		f := src.Frame(k)
		for i := 0; i < 2; i++ {
			cl := f.Clause(i)
			spare := lits.Var(f.NumVars - i)
			for _, l := range cl {
				if l.Var() == spare {
					t.Fatalf("depth %d clause %d already uses variable %d", k, i, spare)
				}
			}
			foreign[k] = append(foreign[k], append(append(cnf.Clause{}, cl...), lits.PosLit(spare)))
		}
	}

	var k int // the depth being raced
	pool := NewPool(src, Config{
		Strategies: portfolio.StrategySet{core.OrderVSIDS, core.OrderTimeAxis},
		Jobs:       1,
		Opts:       sat.Options{},
		Board:      core.NewScoreBoard(core.WeightedSum),
		Record:     true,
		Race: func(_ string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
			skipped := portfolio.AttemptOutcome{Name: attempts[0].Name, Skipped: true}
			if k < len(foreign) {
				// The race ran elsewhere: no local solver is asked for.
				res := portfolio.RaceResult{Winner: 1, Foreign: foreign[k]}
				res.Result.Status = sat.Unsat
				res.Outcomes = []portfolio.AttemptOutcome{skipped, {Name: attempts[1].Name, Status: sat.Unsat}}
				return res
			}
			// The slice holding the second attempt fell back.
			res := portfolio.RaceLive(attempts[1:], assumps, jobs, stop)
			res.Outcomes = append([]portfolio.AttemptOutcome{skipped}, res.Outcomes...)
			res.Winner++
			return res
		},
	})
	reserve, recipient := pool.racers[0], pool.racers[1]

	for k = 0; k < len(foreign); k++ {
		out := pool.RaceDepth(k)
		if len(out.Imported) != 0 || recipient.feed.Fed() != 0 || recipient.feed.Solver != nil {
			t.Fatalf("depth %d: nothing raced here, yet imported=%v and the recipient holds %d frames", k, out.Imported, recipient.feed.Fed())
		}
	}
	out := pool.RaceDepth(k)
	if out.Race.Winner != 1 || out.Race.Result.Status != sat.Unsat {
		t.Fatalf("depth %d: want the fallen-back racer to decide Unsat, got winner %d, %v", k, out.Race.Winner, out.Race.Result.Status)
	}
	if got := out.Imported[recipient.name]; got != 4 || recipient.feed.Imported() != 4 {
		t.Errorf("depth %d: %d foreign clauses booked as imported (racer counts %d), want 4", k, got, recipient.feed.Imported())
	}
	if reserve.feed.Fed() != 0 || reserve.feed.Imported() != 0 || len(reserve.feed.inbox) != 0 {
		t.Errorf("the first racer is the import-free slot, yet it holds %d frames, %d imports, %d waiting batches",
			reserve.feed.Fed(), reserve.feed.Imported(), len(reserve.feed.inbox))
	}

	// IDs are dense in load order: frame 0, boundary 0, frame 1, boundary 1.
	var ids []int
	wantVars := map[lits.Var]bool{}
	next := 0
	for d, batch := range foreign {
		next += src.Frame(d).NumClauses()
		for _, cl := range batch {
			ids = append(ids, next)
			next++
			for _, l := range cl {
				wantVars[l.Var()] = true
			}
		}
	}
	got := recipient.feed.Rec.CoreVarsOf(ids, nil, src.NumVars(k), nil)
	want := make([]lits.Var, 0, len(wantVars))
	for v := range wantVars {
		want = append(want, v)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("foreign leaves %v resolve to variables %v, want %v", ids, got, want)
	}
}
