package experiments

import (
	"fmt"
	"io"
)

// --- observability overhead: metrics + tracing vs the no-op path ---

// obsOverhead measures each model with the observability layer off and
// fully on (a fresh metrics registry plus tracer per run), both under the
// dynamic ordering with the incremental (persistent-solver) loop — the
// configuration with the most instrumentation sites per depth — so the
// searches are identical and only the instrumentation differs. The
// acceptance target is an aggregate overhead < 2%: the registry's hot
// path is one nil-check branch when off and a handful of atomic adds per
// Solve call when on.
func obsOverhead() Experiment {
	return Experiment{Name: "obs-overhead", Models: OverheadModels(),
		Columns: columns("dynamic-incr", "dynamic-incr+obs"), Write: writeObsOverhead}
}

// writeObsOverhead normalizes the comparison per conflict: the solver
// flushes its counters once per Solve call, so ns/conflict isolates the
// instrumentation cost from how hard the model happens to be. The last
// column is the number of counters the instrumented run registered (a run
// that recorded nothing would make the comparison vacuous).
func writeObsOverhead(w io.Writer, g *Grid) {
	perConflict := func(ns, conflicts int64) float64 {
		if conflicts == 0 {
			return 0
		}
		return float64(ns) / float64(conflicts)
	}
	fmt.Fprintln(w, "Observability overhead (identical searches, metrics+tracer off vs on)")
	fmt.Fprintf(w, "%-16s %12s %12s %12s %12s %12s %8s\n",
		"model", "off (s)", "on (s)", "conflicts", "ns/confl off", "ns/confl on", "counters")
	writeRule(w, 90)
	for i, m := range g.Models {
		off, on := g.Cells[i][0], g.Cells[i][1]
		fmt.Fprintf(w, "%-16s %12s %12s %12d %12.0f %12.0f %8d\n",
			m.Name, fmtDuration(off.TotalTime), fmtDuration(on.TotalTime), Conflicts(off),
			perConflict(off.TotalTime.Nanoseconds(), Conflicts(off)),
			perConflict(on.TotalTime.Nanoseconds(), Conflicts(off)),
			len(on.Metrics.Counters))
	}
	writeRule(w, 90)
	// Both columns ran the same searches, so the conflicts-normalized
	// aggregate reduces to the ratio of the summed times.
	var pct float64
	if off, on := g.TotalTime(0), g.TotalTime(1); off > 0 && g.Total(0, Conflicts) > 0 {
		pct = 100 * float64(on-off) / float64(off)
	}
	fmt.Fprintf(w, "aggregate conflicts-normalized overhead: %+.1f%% (target: < 2%%)\n", pct)
}
