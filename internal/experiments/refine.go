package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/engine"
)

// writeRefine renders the paper's claim — the refined ordering shrinks
// the search — in exact, repeatable units on the whole suite: conflicts
// under plain VSIDS against conflicts under the dynamic refinement, for
// the scratch and for the incremental depth loop (the benchmark's
// core.refine_conflict_ratio, row by row instead of on one instance).
// Each dynamic column also shows where its switch to VSIDS fired.
func writeRefine(w io.Writer, g *Grid) {
	count := func(r *engine.Result) string {
		if r.Verdict == engine.Unknown {
			return fmt.Sprintf("%d*", Conflicts(r))
		}
		return fmt.Sprintf("%d ", Conflicts(r))
	}
	quotient := func(vsids, dynamic int64) string {
		if dynamic == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(vsids)/float64(dynamic))
	}
	// switchAt is the median (the upper one of an even count) of the
	// decision counts at which the dynamic switch fired, over the depths
	// where it did; "-" when it never fired.
	switchAt := func(r *engine.Result) string {
		var at []int64
		for _, d := range r.PerDepth {
			if d.Stats.GuidanceSwitched {
				at = append(at, d.Stats.SwitchDecision)
			}
		}
		if len(at) == 0 {
			return "-"
		}
		slices.Sort(at)
		return strconv.FormatInt(at[len(at)/2], 10)
	}
	fmt.Fprintln(w, "Refinement and search effort: conflicts under vsids vs the refined dynamic ordering (scratch | incremental)")
	fmt.Fprintf(w, "%-16s %-4s %12s %12s %8s %8s %12s %12s %8s %8s\n",
		"model", "T/F", "vsids ", "dynamic ", "switch", "ratio", "vsids ", "dynamic ", "switch", "ratio")
	writeRule(w, 109)
	// Each lifetime's vsids and dynamic columns, scratch then incremental:
	// the grid reads vsids, dynamic, vsids-incr and dynamic-incr.
	lifetimes := [2][2]int{{0, 1}, {2, 3}}
	var fewer [2]int // rows where refinement spends fewer conflicts, per lifetime
	for i, m := range g.Models {
		fmt.Fprintf(w, "%-16s %-4s", m.Name, tf(m))
		for l, cols := range lifetimes {
			vsids, dynamic := g.Cells[i][cols[0]], g.Cells[i][cols[1]]
			fmt.Fprintf(w, " %12s %12s %8s %8s", count(vsids), count(dynamic), switchAt(dynamic),
				quotient(Conflicts(vsids), Conflicts(dynamic)))
			if Conflicts(dynamic) < Conflicts(vsids) {
				fewer[l]++
			}
		}
		fmt.Fprintln(w)
	}
	writeRule(w, 109)
	fmt.Fprintf(w, "%-16s %-4s", "TOTAL", "")
	for _, cols := range lifetimes {
		vsids, dynamic := g.Total(cols[0], Conflicts), g.Total(cols[1], Conflicts)
		fmt.Fprintf(w, " %11d  %11d  %8s %8s", vsids, dynamic, "", quotient(vsids, dynamic))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "rows where refinement spends fewer conflicts: %d/%d scratch, %d/%d incremental\n",
		fewer[0], len(g.Models), fewer[1], len(g.Models))
	fmt.Fprintln(w, "(ratio = conflicts(vsids)/conflicts(dynamic), > 1 where refinement shrinks the search; * = budget exhausted before a verdict;")
	fmt.Fprintln(w, " switch = median decision count at which the dynamic ordering fell back to VSIDS, over the depths where it did; - = it never did)")
	writeDisagreements(w, g)
}

// writeIncremental renders the scratch against the incremental depth
// loop under the dynamic ordering (the grid's two columns): wall time,
// conflicts, and what each lifetime's solvers and recorder hold at its
// last depth.
func writeIncremental(w io.Writer, g *Grid) {
	footprint := func(r *engine.Result) string {
		if len(r.PerDepth) == 0 {
			return "-"
		}
		last := r.PerDepth[len(r.PerDepth)-1]
		return fmt.Sprintf("%.2f", float64(last.SolverBytes+last.RecorderBytes)/(1<<20))
	}
	fmt.Fprintln(w, "Incremental vs scratch depth loop (strategy dynamic; one live solver vs per-depth rebuilds)")
	fmt.Fprintf(w, "%-16s %-4s %12s %12s %12s %12s %8s %8s %6s\n",
		"model", "T/F", "scratch (s)", "incr (s)", "conf.scr", "conf.incr", "MB.scr", "MB.incr", "agree")
	writeRule(w, 98)
	var unsat, fewerConf, fasterWall int
	for i, m := range g.Models {
		sr, ir := g.Cells[i][0], g.Cells[i][1]
		fmt.Fprintf(w, "%-16s %-4s %12s %12s %12d %12d %8s %8s %6s\n",
			m.Name, tf(m), fmtDuration(sr.TotalTime), fmtDuration(ir.TotalTime),
			Conflicts(sr), Conflicts(ir), footprint(sr), footprint(ir), agree(g, i))
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
	writeRule(w, 98)
	fmt.Fprintf(w, "%-16s %-4s %12s %12s\n", "TOTAL", "",
		fmtDuration(g.TotalTime(0)), fmtDuration(g.TotalTime(1)))
	fmt.Fprintf(w, "conflicts saved by incrementality: %d\n", g.Total(0, Conflicts)-g.Total(1, Conflicts))
	fmt.Fprintf(w, "UNSAT-heavy rows where incremental wins: %d/%d on conflicts, %d/%d on wall time\n",
		fewerConf, unsat, fasterWall, unsat)
	fmt.Fprintln(w, "(MB = what the solvers' clause databases and the recorder hold at the last depth)")
	writeDisagreements(w, g)
}
