package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sat"
)

// Table1Row is one model's aligned measurements across the three
// configurations. Following the paper, when any configuration runs out of
// budget the comparison is restricted to the deepest unrolling depth that
// all three configurations completed (the depth is then shown in
// parentheses in the T/F column); Time/Dec/Imp/Conf are the per-depth sums
// up to that depth.
type Table1Row struct {
	// TF is "F" for falsified properties, or "(k)" with the deepest
	// commonly completed depth, mirroring the paper's second column.
	TF    string
	Depth int

	Time [3]time.Duration // indexed by ConfBase/ConfStatic/ConfDynamic
	Dec  [3]int64
	Imp  [3]int64
	Conf [3]int64
}

// Configuration indices into Table1Row arrays.
const (
	ConfBase = iota
	ConfStatic
	ConfDynamic
	numConfs
)

// ConfNames are the display names of the three configurations.
var ConfNames = [numConfs]string{"bmc", "static", "dynamic"}

var confStrategies = [numConfs]core.Strategy{core.OrderVSIDS, core.OrderStatic, core.OrderDynamic}

// table1 is the headline comparison — every model of the suite under all
// three configurations — and figure6 the same grid as scatter panes.
func table1() Experiment {
	return Experiment{Name: "table1", Columns: confColumns(), Write: writeTable1, WriteCSV: writeTable1CSV}
}

func figure6() Experiment {
	return Experiment{Name: "fig6", Columns: confColumns(), Write: writeFigure6, WriteCSV: writeFigure6CSV}
}

func confColumns() []Column {
	cols := make([]Column, numConfs)
	for c := range cols {
		cols[c] = fixed(ConfNames[c], engine.WithOrdering(confStrategies[c]))
	}
	return cols
}

// alignRows applies the paper's common-depth convention to every row of
// a three-configuration grid.
func alignRows(g *Grid) []Table1Row {
	rows := make([]Table1Row, len(g.Cells))
	for i, runs := range g.Cells {
		rows[i] = alignRow([numConfs]*engine.Result(runs))
	}
	return rows
}

// alignRow builds a Table1Row from three runs of the same model. When every
// configuration falsified the property, the whole runs are compared; when
// any configuration ran out of budget, the comparison is truncated to the
// deepest depth all configurations completed (the paper's parenthesised-k
// convention).
func alignRow(runs [numConfs]*engine.Result) Table1Row {
	var row Table1Row
	allFalsified := true
	common := -1
	for c, r := range runs {
		if r.Verdict != engine.Falsified {
			allFalsified = false
		}
		completed := -1
		if n := len(r.PerDepth); n > 0 {
			last := r.PerDepth[n-1]
			completed = last.K
			if last.Status == sat.Unknown {
				completed = last.K - 1 // budget died mid-instance
			}
		}
		if c == 0 || completed < common {
			common = completed
		}
	}
	if allFalsified {
		for c, r := range runs {
			row.Time[c] = r.TotalTime
			row.Dec[c] = r.Total.Decisions
			row.Imp[c] = r.Total.Implications
			row.Conf[c] = r.Total.Conflicts
		}
		row.TF = "F"
		row.Depth = runs[ConfBase].K
		return row
	}
	for c, r := range runs {
		for _, d := range r.PerDepth {
			if d.K > common {
				break
			}
			row.Time[c] += d.Wall
			row.Dec[c] += d.Stats.Decisions
			row.Imp[c] += d.Stats.Implications
			row.Conf[c] += d.Stats.Conflicts
		}
	}
	row.TF = fmt.Sprintf("(%d)", common)
	row.Depth = common
	return row
}

// writeTable1 renders the grid in the paper's Table 1 layout.
func writeTable1(w io.Writer, g *Grid) {
	rows := alignRows(g)
	var totalTime [numConfs]time.Duration
	var totalDec [numConfs]int64
	var wins [numConfs]int // models where the configuration beat the baseline time
	fmt.Fprintln(w, "Table 1: BMC vs refine_order BMC (both static and dynamic)")
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s %14s %14s %14s\n",
		"#", "model", "T/F", "bmc (s)", "static (s)", "dynamic (s)", "dec.bmc", "dec.static", "dec.dynamic")
	writeRule(w, 112)
	for i, row := range rows {
		fmt.Fprintf(w, "%-4d %-16s %-6s %12s %12s %12s %14d %14d %14d\n",
			g.Models[i].Index, g.Models[i].Name, row.TF,
			fmtDuration(row.Time[ConfBase]), fmtDuration(row.Time[ConfStatic]), fmtDuration(row.Time[ConfDynamic]),
			row.Dec[ConfBase], row.Dec[ConfStatic], row.Dec[ConfDynamic])
		for c := 0; c < numConfs; c++ {
			totalTime[c] += row.Time[c]
			totalDec[c] += row.Dec[c]
			if row.Time[c] < row.Time[ConfBase] {
				wins[c]++
			}
		}
	}
	writeRule(w, 112)
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s %14d %14d %14d\n",
		"", "TOTAL", "",
		fmtDuration(totalTime[ConfBase]), fmtDuration(totalTime[ConfStatic]), fmtDuration(totalTime[ConfDynamic]),
		totalDec[ConfBase], totalDec[ConfStatic], totalDec[ConfDynamic])
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s\n",
		"", "RATIO", "", "100%",
		ratio(totalTime[ConfBase], totalTime[ConfStatic]),
		ratio(totalTime[ConfBase], totalTime[ConfDynamic]))
	fmt.Fprintf(w, "\nwins vs baseline: static %d/%d, dynamic %d/%d\n",
		wins[ConfStatic], len(rows), wins[ConfDynamic], len(rows))
}

// writeTable1CSV emits the raw rows for external tooling. Aligned times
// follow the table's common-depth convention; full times are the
// unaligned whole-run wall clocks.
func writeTable1CSV(w io.Writer, g *Grid) {
	fmt.Fprintln(w, "index,model,tf,time_bmc_s,time_static_s,time_dynamic_s,full_bmc_s,full_static_s,full_dynamic_s,dec_bmc,dec_static,dec_dynamic,imp_bmc,imp_static,imp_dynamic,conf_bmc,conf_static,conf_dynamic")
	for i, row := range alignRows(g) {
		full := g.Cells[i]
		fmt.Fprintf(w, "%d,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			g.Models[i].Index, g.Models[i].Name, row.TF,
			row.Time[ConfBase].Seconds(), row.Time[ConfStatic].Seconds(), row.Time[ConfDynamic].Seconds(),
			full[ConfBase].TotalTime.Seconds(), full[ConfStatic].TotalTime.Seconds(), full[ConfDynamic].TotalTime.Seconds(),
			row.Dec[ConfBase], row.Dec[ConfStatic], row.Dec[ConfDynamic],
			row.Imp[ConfBase], row.Imp[ConfStatic], row.Imp[ConfDynamic],
			row.Conf[ConfBase], row.Conf[ConfStatic], row.Conf[ConfDynamic])
	}
}

// writeFigure6 renders the Table 1 grid as the paper's Fig. 6 scatter
// panes (static and dynamic vs baseline).
func writeFigure6(w io.Writer, g *Grid) {
	rows := alignRows(g)
	fmt.Fprintln(w, "Figure 6: CPU time, BMC vs refine_order BMC")
	for _, c := range []int{ConfStatic, ConfDynamic} {
		xs := make([]float64, 0, len(rows))
		ys := make([]float64, 0, len(rows))
		for _, row := range rows {
			xs = append(xs, row.Time[ConfBase].Seconds())
			ys = append(ys, row.Time[c].Seconds())
		}
		scatterASCII(w, fmt.Sprintf("pane: %s vs bmc", ConfNames[c]), xs, ys, 60, 20)
		fmt.Fprintln(w)
	}
}

// writeFigure6CSV emits the scatter points.
func writeFigure6CSV(w io.Writer, g *Grid) {
	fmt.Fprintln(w, "model,time_bmc_s,time_static_s,time_dynamic_s")
	for i, row := range alignRows(g) {
		fmt.Fprintf(w, "%s,%.6f,%.6f,%.6f\n", g.Models[i].Name,
			row.Time[ConfBase].Seconds(), row.Time[ConfStatic].Seconds(), row.Time[ConfDynamic].Seconds())
	}
}
