package bmc_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// TestPortfolioAgreesWithSingleOrders runs the portfolio and every single
// ordering on models from both verdict classes and checks they agree —
// the acceptance criterion that racing never changes the answer.
func TestPortfolioAgreesWithSingleOrders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"twin_w8", 6},    // holds up to the bound
		{"cnt_w4_t9", 10}, // falsified
		{"lock_s8", 10},   // falsified
		{"mix_w5", 4},     // holds, conflict-heavy
	} {
		pres := check(t, suiteModel(t, tc.name), engine.WithBudgets(tc.depth, 0), engine.WithPortfolio(nil, 4))
		for _, st := range portfolio.DefaultSet() {
			sres := check(t, suiteModel(t, tc.name), engine.WithBudgets(tc.depth, 0), engine.WithOrdering(st))
			if sres.Verdict != pres.Verdict || sres.K != pres.K {
				t.Errorf("%s: portfolio (%v, depth %d) disagrees with %s (%v, depth %d)",
					tc.name, pres.Verdict, pres.K, st, sres.Verdict, sres.K)
			}
		}
	}
}

// TestPortfolioSeedsScoreBoard checks that the refinement feedback loop
// survives parallelization: every UNSAT depth's winner folds a certified
// core, and every depth names a winner.
func TestPortfolioSeedsScoreBoard(t *testing.T) {
	res := check(t, suiteModel(t, "mix_w5"), engine.WithBudgets(4, 0), engine.WithPortfolio(nil, 2), engine.WithCertify())
	if res.Verdict != engine.Holds {
		t.Fatalf("verdict = %v, want Holds", res.Verdict)
	}
	if len(res.PerDepth) != 5 {
		t.Fatalf("per-depth rows = %d, want 5", len(res.PerDepth))
	}
	for _, d := range res.PerDepth {
		if d.Status != sat.Unsat {
			t.Fatalf("depth %d: status %v", d.K, d.Status)
		}
		if d.Winner == "" {
			t.Fatalf("depth %d has no winner", d.K)
		}
	}
	if got := len(res.Telemetry.Depths); got != 5 {
		t.Fatalf("telemetry depths = %d, want 5", got)
	}
}

// TestPortfolioBudgetExhausted forces tiny budgets so no racer can decide
// and checks the run reports Unknown at the first stuck depth.
func TestPortfolioBudgetExhausted(t *testing.T) {
	res := check(t, suiteModel(t, "mix_w8"), engine.WithBudgets(6, 1), engine.WithPortfolio(nil, 4))
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict = %v, want unknown (budget exhausted)", res.Verdict)
	}
}

// TestPortfolioDeadline checks that a pre-expired deadline stops the run
// before any depth is attempted.
func TestPortfolioDeadline(t *testing.T) {
	res := checkCtx(t, expired(t), suiteModel(t, "twin_w8"), engine.WithBudgets(10, 0), engine.WithPortfolio(nil, 2))
	if res.Verdict != engine.Unknown || res.K != 0 {
		t.Fatalf("verdict = %v depth %d, want unknown at 0", res.Verdict, res.K)
	}
	if len(res.PerDepth) != 0 {
		t.Fatalf("expired deadline still ran %d depths", len(res.PerDepth))
	}
}

// TestPortfolioNotSlowerThanWorst is the latency half of the acceptance
// bar: on a model with a large spread between orderings (mix_w5, where
// plain VSIDS is ~10x slower than the refined orders), the racing
// portfolio must finish no later than the slowest single strategy — even
// on a single core, where the racers are time-sliced rather than truly
// parallel, because the spread exceeds the portfolio width.
func TestPortfolioNotSlowerThanWorst(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	const depth = 7
	set := mustParseSet(t, "vsids,static")
	pres := check(t, suiteModel(t, "mix_w5"), engine.WithBudgets(depth, 0), engine.WithPortfolio(set, 0))
	worst := time.Duration(0)
	for _, st := range set {
		sres := check(t, suiteModel(t, "mix_w5"), engine.WithBudgets(depth, 0), engine.WithOrdering(st))
		if sres.Verdict != pres.Verdict {
			t.Fatalf("%s verdict %v != portfolio %v", st, sres.Verdict, pres.Verdict)
		}
		if sres.TotalTime > worst {
			worst = sres.TotalTime
		}
	}
	if pres.TotalTime > worst {
		t.Errorf("portfolio took %v, slower than the slowest single ordering (%v)",
			pres.TotalTime, worst)
	}
}

// TestPortfolioSubset races a two-strategy set and checks the telemetry
// only ever names members of the set.
func TestPortfolioSubset(t *testing.T) {
	res := check(t, suiteModel(t, "cnt_w4_t9"), engine.WithBudgets(10, 0),
		engine.WithPortfolio(mustParseSet(t, "vsids,timeaxis"), 2))
	if res.Verdict != engine.Falsified {
		t.Fatalf("verdict = %v, want Falsified", res.Verdict)
	}
	allowed := map[string]bool{"vsids": true, "timeaxis": true}
	for _, d := range res.Telemetry.Depths {
		if !allowed[d.Winner] {
			t.Fatalf("winner %q outside the configured set", d.Winner)
		}
	}
}
