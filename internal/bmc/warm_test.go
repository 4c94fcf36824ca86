package bmc_test

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
)

// warm is the warm-portfolio shape: the default strategy set on
// persistent solvers.
var warm = []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}

// TestWarmPortfolioMatchesColdAndIncremental: the acceptance bar — the
// warm pool must return the same
// verdict and depth as both the cold portfolio and the single incremental
// solver, on a failing row (counter-example at a known depth), a passing
// row, a conflict-heavy UNSAT row and a twin circuit that holds.
func TestWarmPortfolioMatchesColdAndIncremental(t *testing.T) {
	for _, m := range []struct {
		name  string
		build func() *circuit.Circuit
		depth int
	}{
		{"cnt_w4_t9", func() *circuit.Circuit { return bench.Counter(4, 9, 2, 6) }, 12},
		{"tlc", func() *circuit.Circuit { return bench.TrafficLight(false, 2, 6) }, 8},
		{"add_w4", func() *circuit.Circuit { return bench.AdderTwin(4, 6, 16) }, 3},
		{"twin_w8", func() *circuit.Circuit { return bench.Twin(8, 2, 6) }, 6},
	} {
		depth := engine.WithBudgets(m.depth, 0)
		cold := check(t, m.build(), depth, engine.WithPortfolio(nil, 0))
		incr := check(t, m.build(), depth, engine.WithIncremental())
		res := check(t, m.build(), append(slices.Clone(warm), depth)...)
		if !res.Warm {
			t.Fatalf("%s: Warm flag not set", m.name)
		}
		if res.Verdict != cold.Verdict || res.K != cold.K {
			t.Fatalf("%s: warm %v@%d vs cold %v@%d",
				m.name, res.Verdict, res.K, cold.Verdict, cold.K)
		}
		if res.Verdict != incr.Verdict || res.K != incr.K {
			t.Fatalf("%s: warm %v@%d vs incremental %v@%d",
				m.name, res.Verdict, res.K, incr.Verdict, incr.K)
		}
		if res.Verdict == engine.Falsified && res.Trace == nil {
			t.Fatalf("%s: falsified without trace", m.name)
		}
	}
}

// TestWarmPortfolioTelemetry: the telemetry must carry per-depth wins and
// warm attribution.
func TestWarmPortfolioTelemetry(t *testing.T) {
	res := check(t, bench.AdderTwin(4, 6, 16), append(slices.Clone(warm), engine.WithBudgets(4, 0))...)
	if res.Verdict != engine.Holds {
		t.Fatalf("verdict %v, want holds", res.Verdict)
	}
	if got := len(res.Telemetry.Depths); got != 5 {
		t.Fatalf("observed %d depths, want 5", got)
	}
	if res.Telemetry.WarmWins == 0 {
		t.Fatalf("no warm wins recorded across 5 UNSAT depths")
	}
	// Core feedback must have produced per-depth core sizes on UNSAT rows.
	sawCore := false
	for _, d := range res.PerDepth {
		if d.CoreVars > 0 {
			sawCore = true
		}
	}
	if !sawCore {
		t.Fatalf("no unsat cores extracted")
	}
}

// TestWarmPortfolioBudget: a tiny per-instance conflict budget must
// surface as Unknown, exactly like the other shapes.
func TestWarmPortfolioBudget(t *testing.T) {
	res := check(t, bench.AdderTwin(8, 0, 0), engine.WithBudgets(6, 1), engine.WithIncremental(),
		engine.WithPortfolio(portfolio.StrategySet{core.OrderVSIDS, core.OrderDynamic}, 0))
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict %v under a 1-conflict budget, want unknown", res.Verdict)
	}
}
