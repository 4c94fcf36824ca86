package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/portfolio"
)

// portfolioAblation is the "portfolio vs best-single-order" table: every
// single-ordering run against the concurrent portfolio that races all of
// them — how close racing gets to the per-instance best strategy (which
// no fixed single ordering achieves, per Table 1) and what it costs. The
// racing column comes last.
func portfolioAblation() Experiment {
	singles := portfolio.DefaultSet().Names()
	return Experiment{Name: "portfolio", Models: AblationModels(), Columns: columns(append(singles, "portfolio")...),
		Write: writePortfolio}
}

func writePortfolio(w io.Writer, g *Grid) {
	last := len(g.Columns) - 1
	fmt.Fprintln(w, "Portfolio vs best single order (concurrent race of all strategies)")
	fmt.Fprintf(w, "%-14s", "model")
	for _, col := range g.Columns[:last] {
		fmt.Fprintf(w, " %12s", col.header()+" (s)")
	}
	fmt.Fprintf(w, " %12s %12s %8s %6s\n", "portfolio(s)", "vs worst", "wasted", "agree")
	width := 14 + 13*last + 13 + 13 + 9 + 7
	writeRule(w, width)
	var totalBest, totalWorst time.Duration // sums of per-row best/worst single times
	for i, m := range g.Models {
		fmt.Fprintf(w, "%-14s", m.Name)
		var single []time.Duration
		for _, r := range g.Cells[i][:last] {
			single = append(single, r.TotalTime)
			fmt.Fprintf(w, " %12s", fmtDuration(r.TotalTime))
		}
		pr := g.Cells[i][last]
		worst := slices.Max(single)
		totalBest += slices.Min(single)
		totalWorst += worst
		// wasted: the search effort burned by cancelled racers.
		fmt.Fprintf(w, " %12s %11.1fx %8d %6s\n",
			fmtDuration(pr.TotalTime), speedup(worst, pr.TotalTime),
			pr.Telemetry.WastedConflicts, agree(g, i))
	}
	writeRule(w, width)
	fmt.Fprintf(w, "%-14s", "TOTAL")
	for c := range g.Columns[:last] {
		fmt.Fprintf(w, " %12s", fmtDuration(g.TotalTime(c)))
	}
	fmt.Fprintf(w, " %12s %11.1fx\n", fmtDuration(g.TotalTime(last)), speedup(totalWorst, g.TotalTime(last)))
	fmt.Fprintf(w, "sum of per-row best singles: %s (the oracle no fixed order reaches)\n",
		fmtDuration(totalBest))
	writeDisagreements(w, g)
}

// speedup returns a/b as a factor (0 when b is zero).
func speedup(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
