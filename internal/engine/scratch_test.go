package engine_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/portfolio"
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
