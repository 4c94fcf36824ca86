package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/sat"
)

// fmtDuration renders a duration in seconds with millisecond resolution,
// matching the paper's CPU-seconds columns.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// ratio renders b/a as a percentage string ("62%"); "-" when a is zero.
func ratio[T ~int64](a, b T) string {
	if a <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(b)/float64(a))
}

// scatterASCII renders a log-log scatter pane like the paper's Fig. 6:
// one point per model at (x=baseline, y=method), with the diagonal
// marked. Points below the diagonal are wins for the method.
func scatterASCII(w io.Writer, xs, ys []float64, width, height int) {
	if len(xs) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	// logOf places a value on the log axis; a zero time sits at 1 µs.
	logOf := func(v float64) float64 { return math.Log10(max(v, 1e-6)) }
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range xs {
		lo, hi = min(lo, logOf(xs[i]), logOf(ys[i])), max(hi, logOf(xs[i]), logOf(ys[i]))
	}
	if hi-lo < 1e-9 {
		hi = lo + 1
	}
	grid := canvas(width, height)
	cell := func(v float64, n int) int {
		return min(max(int((logOf(v)-lo)/(hi-lo)*float64(n-1)), 0), n-1)
	}
	for c := range width { // the diagonal
		grid[height-1-int(float64(c)/float64(width-1)*float64(height-1))][c] = '.'
	}
	for i := range xs {
		grid[height-1-cell(ys[i], height)][cell(xs[i], width)] = 'o'
	}
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "   x: baseline BMC, y: refined (log-log, 10^%.1f .. 10^%.1f seconds)\n", lo, hi)
}

// canvas returns height blank rows of width bytes.
func canvas(width, height int) [][]byte {
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	return grid
}

// seriesASCII renders a log-scale line chart of one statistic over depth
// for both runs, like the paper's Fig. 7 panels.
func seriesASCII(w io.Writer, title string, base, ref []engine.DepthStats, stat func(sat.Stats) int64, height int) {
	fmt.Fprintf(w, "%s   [BMC: '#', ref_ord_BMC: 'o']\n", title)
	if len(base) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	logOf := func(d engine.DepthStats) float64 { return math.Log10(float64(max(stat(d.Stats), 1))) }
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range base {
		lo, hi = min(lo, logOf(base[i]), logOf(ref[i])), max(hi, logOf(base[i]), logOf(ref[i]))
	}
	if hi-lo < 1e-9 {
		hi = lo + 1
	}
	width := len(base)
	grid := canvas(width, height)
	put := func(d engine.DepthStats, col int, ch byte) {
		cell := &grid[height-1-int((logOf(d)-lo)/(hi-lo)*float64(height-1))][col]
		if *cell == ' ' {
			*cell = ch
		} else if *cell != ch {
			*cell = '*' // overlap
		}
	}
	for i := range base {
		put(base[i], i, '#')
		put(ref[i], i, 'o')
	}
	for r, row := range grid {
		mark := "        "
		if r == 0 {
			mark = fmt.Sprintf("10^%-4.1f ", hi)
		} else if r == height-1 {
			mark = fmt.Sprintf("10^%-4.1f ", lo)
		}
		fmt.Fprintf(w, "  %s|%s\n", mark, string(row))
	}
	fmt.Fprintf(w, "          +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "           k = %d .. %d\n", base[0].K, base[width-1].K)
}

// tf renders a model's ground truth: "T" marks a row dominated by UNSAT
// depths (a passing property) — the regime where keeping learned clauses
// and warm solvers should pay.
func tf(m bench.Model) string {
	if m.ExpectFail {
		return "F"
	}
	return "T"
}

// agree renders row i's agreement flag.
func agree(g *Grid, i int) string {
	if g.Agreed(i) {
		return "yes"
	}
	return "NO"
}

// writeDisagreements closes a comparison table with its warning line.
func writeDisagreements(w io.Writer, g *Grid) {
	if n := g.Disagreements(); n > 0 {
		fmt.Fprintf(w, "WARNING: %d verdict disagreements\n", n)
	}
}

// writeRule prints a horizontal rule of the given width.
func writeRule(w io.Writer, width int) {
	fmt.Fprintln(w, strings.Repeat("-", width))
}
