package engine_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
)

// goldenShapes are the seven engine shapes (plus four that pin a path of
// their own: plain VSIDS, the control column the refined orderings are
// measured against, time-axis guidance on base and step formulas, and
// the one-strategy warm k-induction pools), in the configurations whose
// search is exactly repeatable: the portfolio shapes race {dynamic,
// vsids} with jobs = 1, so the attempts run in order and dynamic — the
// ordering fed by the score board — decides every depth.
func goldenShapes() map[string][]engine.Option {
	kind := engine.WithEngine(engine.KInduction)
	race := engine.WithPortfolio(portfolio.StrategySet{core.OrderDynamic, core.OrderVSIDS}, 1)
	return map[string][]engine.Option{
		"bmc-scratch":             nil,
		"bmc-incremental":         {engine.WithIncremental()},
		"bmc-portfolio":           {race},
		"bmc-warm":                {race, engine.WithIncremental()},
		"kind-sequential":         {kind},
		"kind-portfolio":          {kind, race},
		"kind-warm":               {kind, race, engine.WithIncremental()},
		"bmc-scratch-vsids":       {engine.WithOrdering(core.OrderVSIDS)},
		"bmc-scratch-timeaxis":    {engine.WithOrdering(core.OrderTimeAxis)},
		"kind-portfolio-timeaxis": {kind, engine.WithPortfolio(portfolio.StrategySet{core.OrderTimeAxis}, 1)},
		"kind-warm-single":        {kind, engine.WithIncremental()},
	}
}

func goldenModel(t *testing.T, name string) bench.Model {
	t.Helper()
	if name == "gcnt_offset" {
		return bench.Model{Name: name, Build: func() *circuit.Circuit { return bench.OffsetCounter(4, 10, 12) }}
	}
	m, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	return m
}

// TestGoldenCounters pins verdict, K and the search counters of every
// engine shape to the values the seven hand-written depth loops produced
// before they were folded into one (captured at commit 7c8bd11). With the
// benchmark's anchor counts it is the one pin on the search: a change that
// moves a counter fails here. The counters sum Total, BaseStats and
// StepStats; Falsified k-induction rows leave StepStats out, because how
// far the cancelled step race got depends on timing.
//
// Three rows were a second regression suite's, moved here with the
// counters its baseline recorded: mix_w5 to its full depth 9, the one row
// whose search restarts; cnt_w5_t13 falsified at depth 13 on a persistent
// solver; and tlc_bug under plain VSIDS.
//
// The two core columns (captured at commit f72a146, before the three
// recorders became one) pin core extraction directly on the shapes that
// report PerDepth: the dynamic ordering feeds on these cores, but a wrong
// core that happens not to move the search would pass the counters alone.
//
// Every row runs twice, the second time under WithCertify, which records
// complete proofs and certifies each one: certification must leave the
// search alone, so verdict, K and counters are the table's. The core sums
// are compared on the certified run only where the table records a core —
// on the shapes that race no static or dynamic ordering, certification is
// what makes them record at all.
func TestGoldenCounters(t *testing.T) {
	shapes := goldenShapes()
	for _, row := range []struct {
		shape, model string
		depth        int
		verdict      engine.Verdict
		k            int
		conflicts    int64
		decisions    int64
		propagations int64
		// CoreClauses and CoreVars summed over PerDepth.
		coreClauses, coreVars int
	}{
		{"bmc-scratch", "cnt_w4_t9", 12, engine.Falsified, 9, 38, 111, 7963, 942, 866},
		{"bmc-scratch", "mix_w5", 6, engine.Holds, 6, 325, 1537, 204938, 2531, 1155},
		{"bmc-scratch", "twin_w8", 8, engine.Holds, 8, 73, 384, 20441, 1179, 894},
		{"bmc-scratch", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 6, 5},
		{"bmc-scratch", "gcnt_offset", 16, engine.Holds, 16, 420, 601, 61307, 6528, 4076},
		{"bmc-scratch", "mix_w5", 9, engine.Holds, 9, 821, 3596, 514065, 5324, 2355},
		{"bmc-incremental", "cnt_w4_t9", 12, engine.Falsified, 9, 30, 106, 5611, 1599, 1495},
		{"bmc-incremental", "mix_w5", 6, engine.Holds, 6, 321, 1445, 185979, 3903, 2446},
		{"bmc-incremental", "twin_w8", 8, engine.Holds, 8, 72, 384, 16198, 2061, 1608},
		{"bmc-incremental", "tlc_bug", 5, engine.Falsified, 1, 0, 14, 717, 76, 75},
		{"bmc-incremental", "gcnt_offset", 16, engine.Holds, 16, 295, 514, 42005, 6047, 4020},
		{"bmc-incremental", "cnt_w5_t13", 16, engine.Falsified, 13, 65, 255, 14442, 3348, 2998},
		{"bmc-portfolio", "cnt_w4_t9", 12, engine.Falsified, 9, 38, 111, 7963, 942, 866},
		{"bmc-portfolio", "mix_w5", 6, engine.Holds, 6, 325, 1537, 204938, 2531, 1155},
		{"bmc-portfolio", "twin_w8", 8, engine.Holds, 8, 73, 384, 20441, 1179, 894},
		{"bmc-portfolio", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 6, 5},
		{"bmc-portfolio", "gcnt_offset", 16, engine.Holds, 16, 420, 601, 61307, 6528, 4076},
		{"bmc-warm", "cnt_w4_t9", 12, engine.Falsified, 9, 30, 106, 5611, 1599, 1495},
		{"bmc-warm", "mix_w5", 6, engine.Holds, 6, 321, 1445, 185979, 3903, 2446},
		{"bmc-warm", "twin_w8", 8, engine.Holds, 8, 72, 384, 16198, 2061, 1608},
		{"bmc-warm", "tlc_bug", 5, engine.Falsified, 1, 0, 14, 717, 76, 75},
		{"bmc-warm", "gcnt_offset", 16, engine.Holds, 16, 295, 514, 42005, 6047, 4020},
		{"kind-sequential", "cnt_w4_t9", 12, engine.Falsified, 9, 38, 111, 7963, 0, 0},
		{"kind-sequential", "mix_w5", 6, engine.Proved, 0, 35, 516, 12016, 0, 0},
		{"kind-sequential", "twin_w8", 8, engine.Proved, 0, 17, 356, 5633, 0, 0},
		{"kind-sequential", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 0, 0},
		{"kind-sequential", "gcnt_offset", 16, engine.Proved, 2, 8, 11, 651, 0, 0},
		{"kind-portfolio", "cnt_w4_t9", 12, engine.Falsified, 9, 38, 111, 7963, 0, 0},
		{"kind-portfolio", "mix_w5", 6, engine.Proved, 0, 35, 516, 12016, 0, 0},
		{"kind-portfolio", "twin_w8", 8, engine.Proved, 0, 17, 356, 5633, 0, 0},
		{"kind-portfolio", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 0, 0},
		{"kind-portfolio", "gcnt_offset", 16, engine.Proved, 2, 8, 11, 651, 0, 0},
		{"kind-warm", "cnt_w4_t9", 12, engine.Falsified, 9, 30, 106, 5611, 0, 0},
		{"kind-warm", "mix_w5", 6, engine.Proved, 0, 34, 516, 12039, 0, 0},
		{"kind-warm", "twin_w8", 8, engine.Proved, 0, 16, 356, 5680, 0, 0},
		{"kind-warm", "tlc_bug", 5, engine.Falsified, 1, 0, 14, 717, 0, 0},
		{"kind-warm", "gcnt_offset", 16, engine.Proved, 2, 5, 11, 575, 0, 0},
		{"bmc-scratch-vsids", "cnt_w4_t9", 12, engine.Falsified, 9, 29, 287, 17845, 0, 0},
		{"bmc-scratch-vsids", "mix_w5", 6, engine.Holds, 6, 3875, 5772, 729413, 0, 0},
		{"bmc-scratch-vsids", "twin_w8", 8, engine.Holds, 8, 73, 1560, 82265, 0, 0},
		{"bmc-scratch-vsids", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 0, 0},
		{"bmc-scratch-vsids", "gcnt_offset", 16, engine.Holds, 16, 389, 488, 64948, 0, 0},
		{"bmc-scratch-timeaxis", "cnt_w4_t9", 12, engine.Falsified, 9, 29, 287, 17845, 0, 0},
		{"bmc-scratch-timeaxis", "mix_w5", 6, engine.Holds, 6, 313, 1801, 194335, 0, 0},
		{"bmc-scratch-timeaxis", "twin_w8", 8, engine.Holds, 8, 73, 840, 46949, 0, 0},
		{"bmc-scratch-timeaxis", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 0, 0},
		{"bmc-scratch-timeaxis", "gcnt_offset", 16, engine.Holds, 16, 389, 488, 64948, 0, 0},
		{"kind-portfolio-timeaxis", "cnt_w4_t9", 12, engine.Falsified, 9, 29, 287, 17845, 0, 0},
		{"kind-portfolio-timeaxis", "mix_w5", 6, engine.Proved, 0, 35, 466, 9961, 0, 0},
		{"kind-portfolio-timeaxis", "twin_w8", 8, engine.Proved, 0, 17, 292, 4081, 0, 0},
		{"kind-portfolio-timeaxis", "tlc_bug", 5, engine.Falsified, 1, 1, 14, 824, 0, 0},
		{"kind-portfolio-timeaxis", "gcnt_offset", 16, engine.Proved, 2, 26, 33, 1306, 0, 0},
		{"kind-warm-single", "cnt_w4_t9", 12, engine.Falsified, 9, 30, 106, 5611, 0, 0},
		{"kind-warm-single", "mix_w5", 6, engine.Proved, 0, 34, 516, 12039, 0, 0},
		{"kind-warm-single", "twin_w8", 8, engine.Proved, 0, 16, 356, 5680, 0, 0},
		{"kind-warm-single", "tlc_bug", 5, engine.Falsified, 1, 0, 14, 717, 0, 0},
		{"kind-warm-single", "gcnt_offset", 16, engine.Proved, 2, 5, 11, 575, 0, 0},
	} {
		for _, certify := range []bool{false, true} {
			opts := append([]engine.Option{engine.WithBudgets(row.depth, 0)}, shapes[row.shape]...)
			what := row.shape + "/" + row.model
			if certify {
				opts = append(opts, engine.WithCertify())
				what += " (certified)"
			}
			res := checkModel(t, goldenModel(t, row.model), opts...)
			st := res.Total
			st.Add(res.BaseStats)
			if !(res.Engine == engine.KInduction && res.Verdict == engine.Falsified) {
				st.Add(res.StepStats)
			}
			if res.Verdict != row.verdict || res.K != row.k {
				t.Errorf("%s: %v@%d, want %v@%d", what, res.Verdict, res.K, row.verdict, row.k)
			}
			if st.Conflicts != row.conflicts || st.Decisions != row.decisions || st.Implications != row.propagations {
				t.Errorf("%s: %d conflicts, %d decisions, %d propagations; want %d, %d, %d", what,
					st.Conflicts, st.Decisions, st.Implications, row.conflicts, row.decisions, row.propagations)
			}
			coreClauses, coreVars := 0, 0
			for _, d := range res.PerDepth {
				coreClauses += d.CoreClauses
				coreVars += d.CoreVars
			}
			if certify && row.coreClauses == 0 {
				continue
			}
			if coreClauses != row.coreClauses || coreVars != row.coreVars {
				t.Errorf("%s: cores sum to %d clauses over %d variables; want %d, %d", what,
					coreClauses, coreVars, row.coreClauses, row.coreVars)
			}
		}
	}
}
