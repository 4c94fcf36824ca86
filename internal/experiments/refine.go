package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
)

// refine measures the paper's claim — the refined ordering shrinks the
// search — in exact, repeatable units on the whole suite: conflicts under
// plain VSIDS against conflicts under the dynamic refinement, for the
// scratch and for the incremental depth loop (the benchmark's
// core.refine_conflict_ratio, row by row instead of on one instance).
// Each dynamic column also shows where its switch to VSIDS fired.
func refine() Experiment {
	return Experiment{
		Name: "refine",
		Columns: []Column{
			fixed("vsids", engine.WithOrdering(core.OrderVSIDS)),
			fixed("dynamic", engine.WithOrdering(core.OrderDynamic)),
			fixed("vsids-incr", engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental()),
			fixed("dynamic-incr", engine.WithOrdering(core.OrderDynamic), engine.WithIncremental()),
		},
		Write: writeRefine,
	}
}

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
	var fewer [2]int // rows where refinement spends fewer conflicts, per lifetime
	for i, m := range g.Models {
		fmt.Fprintf(w, "%-16s %-4s", m.Name, tf(m))
		for l := range fewer {
			vsids, dynamic := g.Cells[i][2*l], g.Cells[i][2*l+1]
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
	for l := range fewer {
		vsids, dynamic := g.Total(2*l, Conflicts), g.Total(2*l+1, Conflicts)
		fmt.Fprintf(w, " %11d  %11d  %8s %8s", vsids, dynamic, "", quotient(vsids, dynamic))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "rows where refinement spends fewer conflicts: %d/%d scratch, %d/%d incremental\n",
		fewer[0], len(g.Models), fewer[1], len(g.Models))
	fmt.Fprintln(w, "(ratio = conflicts(vsids)/conflicts(dynamic), > 1 where refinement shrinks the search; * = budget exhausted before a verdict;")
	fmt.Fprintln(w, " switch = median decision count at which the dynamic ordering fell back to VSIDS, over the depths where it did; - = it never did)")
	writeDisagreements(w, g)
}
