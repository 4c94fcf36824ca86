package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
)

// incrementalAblation compares the scratch depth loop (every instance
// rebuilt and solved from nothing) against the incremental loop
// (engine.WithIncremental: one live solver whose clause database and
// scores compound across depths), both under the paper's dynamic
// refinement.
func incrementalAblation() Experiment {
	return Experiment{
		Name:   "incremental",
		Models: AblationModels(),
		Columns: []Column{
			fixed("scratch", engine.WithOrdering(core.OrderDynamic)),
			fixed("incremental", engine.WithOrdering(core.OrderDynamic), engine.WithIncremental()),
		},
		Write: writeIncremental,
	}
}

func writeIncremental(w io.Writer, g *Grid) {
	fmt.Fprintln(w, "Incremental vs scratch depth loop (strategy dynamic; one live solver vs per-depth rebuilds)")
	fmt.Fprintf(w, "%-16s %-4s %12s %12s %12s %12s %6s\n",
		"model", "T/F", "scratch (s)", "incr (s)", "conf.scr", "conf.incr", "agree")
	writeRule(w, 80)
	var unsat, fewerConf, fasterWall int
	for i, m := range g.Models {
		sr, ir := g.Cells[i][0], g.Cells[i][1]
		fmt.Fprintf(w, "%-16s %-4s %12s %12s %12d %12d %6s\n",
			m.Name, tf(m), fmtDuration(sr.TotalTime), fmtDuration(ir.TotalTime),
			Conflicts(sr), Conflicts(ir), agree(g, i))
		if !m.ExpectFail {
			unsat++
			if Conflicts(ir) < Conflicts(sr) {
				fewerConf++
			}
			if ir.TotalTime < sr.TotalTime {
				fasterWall++
			}
		}
	}
	writeRule(w, 80)
	fmt.Fprintf(w, "%-16s %-4s %12s %12s\n", "TOTAL", "",
		fmtDuration(g.TotalTime(0)), fmtDuration(g.TotalTime(1)))
	fmt.Fprintf(w, "conflicts saved by incrementality: %d\n", g.Total(0, Conflicts)-g.Total(1, Conflicts))
	fmt.Fprintf(w, "UNSAT-heavy rows where incremental wins: %d/%d on conflicts, %d/%d on wall time\n",
		fewerConf, unsat, fasterWall, unsat)
	writeDisagreements(w, g)
}
