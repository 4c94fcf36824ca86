// Package repro's root benchmarks regenerate every table and figure of the
// paper on scaled-down configurations (depth-capped, conflict-budgeted) so
// `go test -bench=.` finishes in minutes. The full-scale artifacts are
// produced by cmd/tablegen (README, "Reproducing the paper's artifacts").
//
// BenchmarkExperiment fills the grid of the whole experiments registry
// once — each (model, configuration) cell solved once, however many
// experiments read it — renders every experiment from it, reports each
// experiment's per-column total wall time, and fails on any verdict or
// depth disagreement between the columns of an experiment's row (the
// soundness canary for the racing and incremental shapes).
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

// BenchmarkExperiment runs the whole registry once per iteration (see the
// package comment). Reading portfolio's columns: on multi-core hardware
// the race beats the worst single ordering by construction (it ends at
// the first verdict); on a single core the racers are time-sliced, so it
// only does where the spread between strategies exceeds the portfolio
// width — the hard rows' regime, not every ablation model's.
func BenchmarkExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := experiments.RunAll(context.Background(), quickCfg(), experiments.All(),
			func(e experiments.Experiment, g *experiments.Grid) {
				e.Write(io.Discard, g)
				if n := g.Disagreements(); n > 0 {
					b.Fatalf("%s: %d verdict disagreements", e.Name, n)
				}
				if i == b.N-1 {
					for c, col := range g.Columns {
						b.ReportMetric(g.TotalTime(c).Seconds(), e.Name+"."+col.Name+"_s")
					}
				}
			})
		if err != nil {
			b.Fatal(err)
		}
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
