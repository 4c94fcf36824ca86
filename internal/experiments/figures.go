package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/sat"
)

// fig7Series pairs the first row's vsids and dynamic per-depth
// statistics over the depths both reached.
func fig7Series(g *Grid) (base, ref []engine.DepthStats) {
	base, ref = g.Cells[0][0].PerDepth, g.Cells[0][1].PerDepth
	n := min(len(base), len(ref))
	return base[:n], ref[:n]
}

// writeFigure7 renders the paper's Figure 7 on the grid's first row
// (bench.Fig7Model stands for the paper's 02_3_b2): decisions and
// implications per depth for the standard BMC and the refined (dynamic)
// ordering, as two text charts plus the raw series.
func writeFigure7(w io.Writer, g *Grid) {
	base, ref := fig7Series(g)
	fmt.Fprintf(w, "Figure 7: statistics on %s (x-axis is the unrolling depth)\n\n", g.Models[0].Name)
	seriesASCII(w, "Number of Decisions", base, ref, func(s sat.Stats) int64 { return s.Decisions }, 16)
	fmt.Fprintln(w)
	seriesASCII(w, "Number of Implications", base, ref, func(s sat.Stats) int64 { return s.Implications }, 16)
	fmt.Fprintln(w)
	writeFig7Rows(w, g, fmt.Sprintf("%-6s %14s %14s %14s %14s", "k", "dec.bmc", "dec.ref", "imp.bmc", "imp.ref"),
		"%-6d %14d %14d %14d %14d\n")
}

// writeFigure7CSV emits the per-depth series.
func writeFigure7CSV(w io.Writer, g *Grid) {
	writeFig7Rows(w, g, "k,dec_bmc,dec_ref,imp_bmc,imp_ref", "%d,%d,%d,%d,%d\n")
}

// writeFig7Rows prints the header and then one line per depth: k, the
// decisions of both runs, the implications of both runs.
func writeFig7Rows(w io.Writer, g *Grid, header, format string) {
	base, ref := fig7Series(g)
	fmt.Fprintln(w, header)
	for i := range base {
		fmt.Fprintf(w, format, base[i].K, base[i].Stats.Decisions, ref[i].Stats.Decisions,
			base[i].Stats.Implications, ref[i].Stats.Implications)
	}
}
