// Package repro's root benchmarks regenerate every table and figure of the
// paper on scaled-down configurations (depth-capped, conflict-budgeted) so
// `go test -bench=.` finishes in minutes. The full-scale artifacts are
// produced by cmd/tablegen (README, "Reproducing the paper's artifacts").
//
// BenchmarkExperiment/<name> fills one grid of the experiments registry,
// renders it, reports each column's total wall time, and fails on any
// verdict or depth disagreement between the columns of a row (the
// soundness canary for the racing and incremental shapes).
// BenchmarkExperiment/suite fills the whole suite grid once — vsids,
// static and dynamic from scratch, vsids and dynamic incremental — and
// renders its five views from it (table1, fig6, fig7, incremental,
// refine), with the disagreement gate over all five columns; the other
// entries are obs-overhead, ablation, threshold, timeaxis, portfolio,
// warm and warm-kind.
// BenchmarkCDGMemory is the one artifact measured below the engine: §3.1,
// the CDG's bookkeeping in time and bytes.
//
// Per-configuration solver micro-benchmarks live in internal/sat.
package repro

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

// quickCfg caps the suite so one experiment pass stays in benchmark
// territory: depth 6, bounded conflicts, and a short per-model budget.
func quickCfg() experiments.Config {
	return experiments.Config{
		DepthCap:             6,
		PerInstanceConflicts: 50000,
		PerModelBudget:       5 * time.Second,
	}
}

// BenchmarkExperiment runs the suite grid and every other registry entry
// once per iteration (see the package comment). Reading portfolio's
// columns: on multi-core hardware the race beats the worst single
// ordering by construction (it ends at the first verdict); on a single
// core the racers are time-sliced, so it only does where the spread
// between strategies exceeds the portfolio width — the hard rows'
// regime, not every ablation model's.
func BenchmarkExperiment(b *testing.B) {
	type entry struct {
		name string
		exps []experiments.Experiment
	}
	entries := []entry{{name: "suite"}}
	for _, e := range experiments.All() {
		if e.Reads != nil {
			entries[0].exps = append(entries[0].exps, e)
		} else {
			entries = append(entries, entry{e.Name, []experiments.Experiment{e}})
		}
	}
	for _, en := range entries {
		b.Run(en.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var g *experiments.Grid
				suite, err := experiments.RunAll(context.Background(), quickCfg(), en.exps,
					func(e experiments.Experiment, eg *experiments.Grid) {
						e.Write(io.Discard, eg)
						g = eg
					})
				if err != nil {
					b.Fatal(err)
				}
				if len(suite.Models) > 0 {
					g = suite
				}
				if n := g.Disagreements(); n > 0 {
					b.Fatalf("%d verdict disagreements", n)
				}
				if i == b.N-1 {
					for c, col := range g.Columns {
						b.ReportMetric(g.TotalTime(c).Seconds(), col.Name+"_s")
					}
				}
			}
		})
	}
}

func BenchmarkCDGMemory(b *testing.B) {
	cfg := quickCfg()
	cfg.Models = experiments.OverheadModels()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCDGMemory(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var ratios float64
			for _, row := range res.Rows {
				ratios += float64(row.FullBytes) / float64(row.SimplifiedBytes)
			}
			b.ReportMetric(ratios/float64(len(res.Rows)), "full_vs_simplified_x")
		}
	}
}

// BenchmarkBMCPerOrdering times one full BMC run of the Figure 7 model per
// ordering — the per-row cost underlying Table 1 — as 1×1 grids over the
// portfolio experiment's single-ordering columns.
func BenchmarkBMCPerOrdering(b *testing.B) {
	m, ok := bench.ByName(bench.Fig7Model)
	if !ok {
		b.Fatalf("model %s missing", bench.Fig7Model)
	}
	cfg := quickCfg()
	cfg.Models = []bench.Model{m}
	portfolio, _ := experiments.ByName("portfolio")
	for _, col := range portfolio.Columns[:len(portfolio.Columns)-1] {
		b.Run(col.Name, func(b *testing.B) {
			var dec int64
			for i := 0; i < b.N; i++ {
				g, err := cfg.Run(context.Background(), []experiments.Column{col})
				if err != nil {
					b.Fatal(err)
				}
				dec = g.Cells[0][0].Total.Decisions
			}
			b.ReportMetric(float64(dec), "decisions")
		})
	}
}
