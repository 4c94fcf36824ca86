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
// is the solver it would have been had it taken every frame the moment it
// appeared. Two strategies share one worker slot;
// the first decides the shallow depths and then runs out of its per-depth
// conflict budget, which is when the second first races (depth 4 here, and
// it falls behind again whenever the first decides a later depth). Its
// verdicts, per-depth search statistics and core sizes must equal those of
// a reference solver this test feeds eagerly, with plain AddClause in
// frame order. A shortcut that loads only the racer
// that has always won passes every test in which the first racer decides
// every depth, and fails here.
//
// The late racer runs the dynamic and the time-axis strategy, in a pool
// sized ahead for the check: once it has loaded, each depth's guidance is
// written over the array its solver holds, also while it is behind. Both
// strategies score variables of
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
		budget   = 160
		maxDepth = 7
	)
	early := core.OrderVSIDS
	u, err := unroll.New(bench.ParityMixer(6, 4, 12), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := DeltaSource(u.Delta())

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
	})
	lateRacer := pool.racers[1]

	// The reference runs under the late racer's options and is always
	// current: every frame as it is built. It searches exactly when the
	// late racer does.
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
			// again.
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
			want := ref.SolveAssuming([]lits.Lit{src.ActLit(k)})
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
	}
	if first < 2 || raced < 3 || skippedAgain == 0 {
		t.Fatalf("the late racer first raced at depth %d, raced %d depths and fell behind again at %d; the test needs it skipped at least twice, racing at least three times, and behind again at least once",
			first, raced, skippedAgain)
	}
	t.Logf("late racer first raced at depth %d, raced %d depths, fell behind again at %d",
		first, raced, skippedAgain)
}
