package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
)

// --- wall-time sweeps: §3.2 score rules, §3.3 switch threshold, time axis ---

// writeTimes renders a wall-time grid: one row per model, one column per
// configuration headed by its name plus unit, and a TOTAL row. mark, when
// non-nil, flags a cell with a trailing character.
func writeTimes(w io.Writer, g *Grid, title, unit string, mark func(*engine.Result) string) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-16s", "model")
	for _, col := range g.Columns {
		fmt.Fprintf(w, " %14s", col.header()+unit)
	}
	fmt.Fprintln(w)
	writeRule(w, 16+15*len(g.Columns))
	for i, m := range g.Models {
		fmt.Fprintf(w, "%-16s", m.Name)
		for _, r := range g.Cells[i] {
			cell := fmtDuration(r.TotalTime)
			if mark != nil {
				cell += mark(r)
			}
			fmt.Fprintf(w, " %14s", cell)
		}
		fmt.Fprintln(w)
	}
	writeRule(w, 16+15*len(g.Columns))
	fmt.Fprintf(w, "%-16s", "TOTAL")
	for c := range g.Columns {
		fmt.Fprintf(w, " %14s", fmtDuration(g.TotalTime(c)))
	}
	fmt.Fprintln(w)
}

// scoreAblation compares the paper's weighted-sum bmc_score against the
// alternatives discussed in §3.2 (unweighted, last-core-only, exponential
// decay), all under the static application.
func scoreAblation() Experiment {
	cols := columns("static", "unweighted-sum", "last-core-only", "exp-decay")
	cols[0].Header = core.WeightedSum.String()
	return Experiment{Name: "ablation", Models: AblationModels(), Columns: cols,
		Write: func(w io.Writer, g *Grid) {
			writeTimes(w, g, "Sec. 3.2 ablation: bmc_score accumulation rule (static ordering)", "", nil)
		}}
}

// threshold sweeps the dynamic configuration's switch divisor (decisions >
// #literals/divisor triggers the fallback to VSIDS): 16, the paper's 64,
// 256, and never switching, which is static.
func threshold() Experiment {
	cols := columns("lits/16", "dynamic", "lits/256", "static")
	cols[1].Header = fmt.Sprintf("lits/%d", core.SwitchDivisor)
	cols[3].Header = "never(static)"
	return Experiment{Name: "threshold", Models: AblationModels(), Columns: cols,
		Write: func(w io.Writer, g *Grid) {
			writeTimes(w, g, "Sec. 3.3 ablation: dynamic switch divisor (decisions > lits/divisor)", "",
				func(r *engine.Result) string {
					if r.Total.GuidanceSwitched {
						return "*"
					}
					return " "
				})
			fmt.Fprintln(w, "(* = the VSIDS fallback fired on at least one instance)")
		}}
}

// timeAxis compares baseline, the paper's dynamic refinement, and a
// Shtrichman-style time-axis static ordering.
func timeAxis() Experiment {
	cols := columns("vsids", "dynamic", "timeaxis")
	cols[0].Header = "bmc"
	return Experiment{Name: "timeaxis", Models: AblationModels(), Columns: cols,
		Write: func(w io.Writer, g *Grid) {
			writeTimes(w, g, "Related work: time-axis (Shtrichman-style) vs register-axis (this paper)", " (s)", nil)
		}}
}
