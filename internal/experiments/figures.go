package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
)

// Figure7 reproduces the paper's Figure 7 on the given model (the suite's
// bench.Fig7Model is the designated analogue of the paper's 02_3_b2): the
// number of decisions and implications at each unrolling depth, for the
// standard BMC and the refined ordering (ref_ord_BMC; the paper plots the
// dynamic configuration).
func Figure7(model string) (Experiment, error) {
	m, ok := bench.ByName(model)
	if !ok {
		return Experiment{}, fmt.Errorf("fig7: unknown model %q", model)
	}
	return Experiment{
		Name:   "fig7",
		Models: []bench.Model{m},
		Columns: []Column{
			fixed("bmc", engine.WithOrdering(core.OrderVSIDS)),
			fixed("ref", engine.WithOrdering(core.OrderDynamic)),
		},
		Write:    writeFigure7,
		WriteCSV: writeFigure7CSV,
	}, nil
}

// fig7Series pairs the two runs' per-depth statistics over the depths
// both reached.
func fig7Series(g *Grid) (base, ref []engine.DepthStats) {
	base, ref = g.Cells[0][0].PerDepth, g.Cells[0][1].PerDepth
	n := min(len(base), len(ref))
	return base[:n], ref[:n]
}

// writeFigure7 renders both panels (decisions, implications) as text
// charts plus the raw series.
func writeFigure7(w io.Writer, g *Grid) {
	base, ref := fig7Series(g)
	var depths []int
	var decBase, decRef, impBase, impRef []int64
	for i := range base {
		depths = append(depths, base[i].K)
		decBase = append(decBase, base[i].Stats.Decisions)
		decRef = append(decRef, ref[i].Stats.Decisions)
		impBase = append(impBase, base[i].Stats.Implications)
		impRef = append(impRef, ref[i].Stats.Implications)
	}
	fmt.Fprintf(w, "Figure 7: statistics on %s (x-axis is the unrolling depth)\n\n", g.Models[0].Name)
	seriesASCII(w, "Number of Decisions", depths, decBase, decRef, "BMC", "ref_ord_BMC", 16)
	fmt.Fprintln(w)
	seriesASCII(w, "Number of Implications", depths, impBase, impRef, "BMC", "ref_ord_BMC", 16)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "k", "dec.bmc", "dec.ref", "imp.bmc", "imp.ref")
	for i, k := range depths {
		fmt.Fprintf(w, "%-6d %14d %14d %14d %14d\n", k, decBase[i], decRef[i], impBase[i], impRef[i])
	}
}

// writeFigure7CSV emits the per-depth series.
func writeFigure7CSV(w io.Writer, g *Grid) {
	base, ref := fig7Series(g)
	fmt.Fprintln(w, "k,dec_bmc,dec_ref,imp_bmc,imp_ref")
	for i := range base {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d\n", base[i].K,
			base[i].Stats.Decisions, ref[i].Stats.Decisions,
			base[i].Stats.Implications, ref[i].Stats.Implications)
	}
}
