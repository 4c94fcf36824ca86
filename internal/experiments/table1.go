package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/sat"
)

// Table 1's columns (and Figure 6's), which index a Table1Row's arrays
// too.
const (
	ConfBase = iota // vsids from scratch: the paper's plain BMC
	ConfStatic
	ConfDynamic

	numConfs = ConfDynamic + 1
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

	Time [numConfs]time.Duration // indexed by ConfBase/ConfStatic/ConfDynamic
	Dec  [numConfs]int64
	Imp  [numConfs]int64
	Conf [numConfs]int64
}

// alignRows applies the paper's common-depth convention to every row of
// the grid.
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
	add := func(c int, wall time.Duration, st sat.Stats) {
		row.Time[c] += wall
		row.Dec[c] += st.Decisions
		row.Imp[c] += st.Implications
		row.Conf[c] += st.Conflicts
	}
	allFalsified := true
	common := -1
	for c, r := range runs {
		allFalsified = allFalsified && r.Verdict == engine.Falsified
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
			add(c, r.TotalTime, r.Total)
		}
		row.TF, row.Depth = "F", runs[ConfBase].K
		return row
	}
	for c, r := range runs {
		for _, d := range r.PerDepth {
			if d.K <= common {
				add(c, d.Wall, d.Stats)
			}
		}
	}
	row.TF, row.Depth = fmt.Sprintf("(%d)", common), common
	return row
}

// writeTable1 renders the grid in the paper's Table 1 layout.
func writeTable1(w io.Writer, g *Grid) {
	rows := alignRows(g)
	total, wins, decWins := tally(rows)
	fmt.Fprintln(w, "Table 1: BMC vs refine_order BMC (both static and dynamic)")
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s %14s %14s %14s\n",
		"#", "model", "T/F", "bmc (s)", "static (s)", "dynamic (s)", "dec.bmc", "dec.static", "dec.dynamic")
	writeRule(w, 112)
	for i, row := range rows {
		fmt.Fprintf(w, "%-4d %-16s %-6s %12s %12s %12s %14d %14d %14d\n",
			g.Models[i].Index, g.Models[i].Name, row.TF,
			fmtDuration(row.Time[ConfBase]), fmtDuration(row.Time[ConfStatic]), fmtDuration(row.Time[ConfDynamic]),
			row.Dec[ConfBase], row.Dec[ConfStatic], row.Dec[ConfDynamic])
	}
	writeRule(w, 112)
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s %14d %14d %14d\n",
		"", "TOTAL", "",
		fmtDuration(total.Time[ConfBase]), fmtDuration(total.Time[ConfStatic]), fmtDuration(total.Time[ConfDynamic]),
		total.Dec[ConfBase], total.Dec[ConfStatic], total.Dec[ConfDynamic])
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s\n",
		"", "RATIO", "", "100%",
		ratio(total.Time[ConfBase], total.Time[ConfStatic]),
		ratio(total.Time[ConfBase], total.Time[ConfDynamic]))
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %12s %12s %14s %14s %14s\n",
		"", "RATIO (dec)", "", "", "", "", "100%",
		ratio(total.Dec[ConfBase], total.Dec[ConfStatic]),
		ratio(total.Dec[ConfBase], total.Dec[ConfDynamic]))
	fmt.Fprintf(w, "\nwins vs baseline: static %d/%d, dynamic %d/%d\n",
		wins[ConfStatic], len(rows), wins[ConfDynamic], len(rows))
	fmt.Fprintf(w, "wins vs baseline (decisions): static %d/%d, dynamic %d/%d\n",
		decWins[ConfStatic], len(rows), decWins[ConfDynamic], len(rows))
}

// tally sums the rows' aligned seconds and decisions, and counts per
// configuration the rows where it beat the baseline in each.
func tally(rows []Table1Row) (total Table1Row, secs, decs [numConfs]int) {
	for _, row := range rows {
		for c := range secs {
			total.Time[c] += row.Time[c]
			total.Dec[c] += row.Dec[c]
			if row.Time[c] < row.Time[ConfBase] {
				secs[c]++
			}
			if row.Dec[c] < row.Dec[ConfBase] {
				decs[c]++
			}
		}
	}
	return total, secs, decs
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

// writeFigure6 renders the Table 1 cells as the paper's Fig. 6 scatter
// panes (static and dynamic vs baseline), each captioned with how many
// models lie below its diagonal, in seconds and in aligned decisions.
func writeFigure6(w io.Writer, g *Grid) {
	rows := alignRows(g)
	_, below, decBelow := tally(rows)
	fmt.Fprintln(w, "Figure 6: CPU time, BMC vs refine_order BMC")
	for _, c := range []int{ConfStatic, ConfDynamic} {
		xs := make([]float64, 0, len(rows))
		ys := make([]float64, 0, len(rows))
		for _, row := range rows {
			xs = append(xs, row.Time[ConfBase].Seconds())
			ys = append(ys, row.Time[c].Seconds())
		}
		fmt.Fprintf(w, "pane: %s vs bmc  (points below diagonal: refined ordering wins)\n", g.Columns[c].Name)
		fmt.Fprintf(w, "  below the diagonal: %d/%d models in seconds, %d/%d in aligned decisions\n",
			below[c], len(rows), decBelow[c], len(rows))
		scatterASCII(w, xs, ys, 60, 20)
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
