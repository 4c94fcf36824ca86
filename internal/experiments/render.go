package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/bench"
)

// fmtDuration renders a duration in seconds with millisecond resolution,
// matching the paper's CPU-seconds columns.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// ratio renders b/a as a percentage string ("62%"); "-" when a is zero.
func ratio(a, b time.Duration) string {
	if a <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(b)/float64(a))
}

// scatterASCII renders log-log scatter panes like the paper's Fig. 6: one
// point per model at (x=baseline, y=method), with the diagonal marked.
// Points below the diagonal are wins for the method.
func scatterASCII(w io.Writer, title string, xs, ys []float64, width, height int) {
	fmt.Fprintf(w, "%s  (points below diagonal: refined ordering wins)\n", title)
	if len(xs) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range xs {
		for _, v := range []float64{xs[i], ys[i]} {
			if v <= 0 {
				v = 1e-6
			}
			if lv := math.Log10(v); lv < lo {
				lo = lv
			}
			if lv := math.Log10(v); lv > hi {
				hi = lv
			}
		}
	}
	if hi-lo < 1e-9 {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	cell := func(v float64, n int) int {
		if v <= 0 {
			v = 1e-6
		}
		p := (math.Log10(v) - lo) / (hi - lo)
		i := int(p * float64(n-1))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	// Diagonal.
	for c := 0; c < width; c++ {
		r := int(float64(c) / float64(width-1) * float64(height-1))
		grid[height-1-r][c] = '.'
	}
	for i := range xs {
		c := cell(xs[i], width)
		r := cell(ys[i], height)
		grid[height-1-r][c] = 'o'
	}
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "   x: baseline BMC, y: refined (log-log, 10^%.1f .. 10^%.1f seconds)\n", lo, hi)
}

// seriesASCII renders a log-scale line chart of one or two series over
// depth, like the paper's Fig. 7 panels.
func seriesASCII(w io.Writer, title string, depths []int, a, b []int64, aName, bName string, height int) {
	fmt.Fprintf(w, "%s   [%s: '#', %s: 'o']\n", title, aName, bName)
	if len(depths) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	logOf := func(v int64) float64 {
		if v < 1 {
			v = 1
		}
		return math.Log10(float64(v))
	}
	for i := range depths {
		for _, v := range []float64{logOf(a[i]), logOf(b[i])} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi-lo < 1e-9 {
		hi = lo + 1
	}
	width := len(depths)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	put := func(v int64, col int, ch byte) {
		p := (logOf(v) - lo) / (hi - lo)
		r := int(p * float64(height-1))
		cur := grid[height-1-r][col]
		if cur == ' ' || ch == '*' {
			grid[height-1-r][col] = ch
		} else if cur != ch {
			grid[height-1-r][col] = '*' // overlap
		}
	}
	for i := range depths {
		put(a[i], i, '#')
		put(b[i], i, 'o')
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
	fmt.Fprintf(w, "           k = %d .. %d\n", depths[0], depths[len(depths)-1])
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
