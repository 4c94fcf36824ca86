package bmc_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

func mustParseSet(t *testing.T, s string) portfolio.StrategySet {
	t.Helper()
	set, err := portfolio.ParseSet(s)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func suiteModel(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	m, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	return m.Build()
}

// TestIncrementalAgreesWithScratchSuite is the acceptance criterion of the
// incremental shape: on every internal/bench family it must return the
// verdict and counter-example depth of the scratch shape. Failing rows
// run to their full suite depth (the counter-example length must match
// exactly); passing rows are depth-capped to keep the sweep fast.
func TestIncrementalAgreesWithScratchSuite(t *testing.T) {
	for _, m := range bench.Suite() {
		depth := m.MaxDepth
		if !m.ExpectFail && depth > 5 {
			depth = 5
		}
		if testing.Short() && m.ExpectFail && depth > 10 {
			depth = 10
		}
		sres := check(t, m.Build(), engine.WithBudgets(depth, 0))
		ires := check(t, m.Build(), engine.WithBudgets(depth, 0), engine.WithIncremental())
		if sres.Verdict != ires.Verdict || sres.K != ires.K {
			t.Errorf("%s: incremental (%v, depth %d) disagrees with scratch (%v, depth %d)",
				m.Name, ires.Verdict, ires.K, sres.Verdict, sres.K)
		}
		if m.ExpectFail && !testing.Short() && ires.Verdict == engine.Falsified && ires.K != m.FailDepth {
			t.Errorf("%s: counter-example at depth %d, ground truth %d", m.Name, ires.K, m.FailDepth)
		}
	}
}

// TestIncrementalAllStrategies checks verdict agreement for every ordering
// strategy on one model from each verdict class.
func TestIncrementalAllStrategies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		depth   int
		verdict engine.Verdict
		k       int
	}{
		{"cnt_w4_t9", 12, engine.Falsified, 9},
		{"twin_w8", 6, engine.Holds, 6},
	} {
		for _, st := range allStrategies() {
			res := check(t, suiteModel(t, tc.name), engine.WithBudgets(tc.depth, 0), engine.WithOrdering(st), engine.WithIncremental())
			if res.Verdict != tc.verdict || res.K != tc.k {
				t.Errorf("%s/%v: verdict=%v depth=%d, want %v at %d",
					tc.name, st, res.Verdict, res.K, tc.verdict, tc.k)
			}
		}
	}
}

// TestIncrementalExtractsCores: the incremental CDG's proof and core must
// certify at every UNSAT depth under a core-consuming strategy.
func TestIncrementalExtractsCores(t *testing.T) {
	res := check(t, suiteModel(t, "twin_w8"), engine.WithBudgets(5, 0), engine.WithOrdering(core.OrderStatic),
		engine.WithIncremental(), engine.WithCertify())
	if res.Verdict != engine.Holds {
		t.Fatalf("verdict=%v", res.Verdict)
	}
	for _, d := range res.PerDepth {
		if d.Status != sat.Unsat {
			t.Fatalf("depth %d: status %v", d.K, d.Status)
		}
	}
}

// TestIncrementalPerDepthStatsAreDeltas: DepthStats must record per-call
// deltas whose sum is the run total, not cumulative lifetime counters.
func TestIncrementalPerDepthStatsAreDeltas(t *testing.T) {
	res := check(t, suiteModel(t, "mix_w5"), engine.WithBudgets(4, 0), engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental())
	var conf, dec int64
	for _, d := range res.PerDepth {
		conf += d.Stats.Conflicts
		dec += d.Stats.Decisions
	}
	if res.Total.Conflicts != conf || res.Total.Decisions != dec {
		t.Errorf("totals (%d conf, %d dec) != per-depth sums (%d, %d)",
			res.Total.Conflicts, res.Total.Decisions, conf, dec)
	}
}

func TestIncrementalBudgetExhausted(t *testing.T) {
	res := check(t, suiteModel(t, "mix_w8"), engine.WithBudgets(8, 1), engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental())
	if res.Verdict != engine.Unknown {
		t.Errorf("verdict=%v, want unknown (budget exhausted)", res.Verdict)
	}
	// A single-ordering run reports the effort of the depth its budget
	// ran out in.
	last := res.PerDepth[len(res.PerDepth)-1]
	if last.Status.Decided() || last.Stats.Conflicts == 0 || res.Total.Conflicts == 0 {
		t.Errorf("exhausted depth %+v, total %+v: want an undecided row that counts its conflicts", last, res.Total)
	}
}

func TestIncrementalDeadlineInPast(t *testing.T) {
	res := checkCtx(t, expired(t), suiteModel(t, "twin_w8"), engine.WithBudgets(10, 0), engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental())
	if res.Verdict != engine.Unknown || res.K != 0 {
		t.Errorf("verdict=%v depth=%d, want unknown at 0", res.Verdict, res.K)
	}
}
