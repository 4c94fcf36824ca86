package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// CDGMemoryRow is §3.1 on a model's deepest UNSAT instance, solved by one
// search with no recorder, the simplified CDG (pseudo IDs) and the complete
// CDG (literals too): the bookkeeping's cost in time (the paper: about 5%),
// and in bytes, where "compared to the number of literals in the conflict
// clauses, which is often in the hundreds, the overhead of the pseudo ID is
// small". The complete CDG's proof and core are certified, so a row exists
// only for a genuine refutation.
type CDGMemoryRow struct {
	Name            string
	Depth           int
	LearnedClauses  int
	Off, Simplified time.Duration
	// Decisions of the off, simplified and complete solves: recording
	// must not change the search, so they are equal.
	Decisions       [3]int64
	SimplifiedBytes int64
	FullBytes       int64
}

// CDGMemoryResult holds the §3.1 rows.
type CDGMemoryResult struct{ Rows []CDGMemoryRow }

// RunCDGMemory executes §3.1 on the config's models. It works below the
// engine — one formula, three solves — so it is not a Grid of engine
// configurations and not in the registry. A proof that does not certify
// is an error.
func RunCDGMemory(cfg Config) (*CDGMemoryResult, error) {
	res := &CDGMemoryResult{}
	for _, m := range cfg.models() {
		row, err := cdgMemoryOne(cfg, m)
		if err != nil {
			return nil, fmt.Errorf("cdgmemory %s: %w", m.Name, err)
		}
		if row.LearnedClauses > 0 { // else a BCP-only refutation: nothing to compare
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func cdgMemoryOne(cfg Config, m bench.Model) (CDGMemoryRow, error) {
	depth := cfg.depthFor(m)
	if m.ExpectFail && m.FailDepth-1 < depth {
		depth = m.FailDepth - 1 // deepest UNSAT instance
	}
	row := CDGMemoryRow{Name: m.Name, Depth: depth}

	u, err := unroll.New(m.Build(), 0)
	if err != nil {
		return row, err
	}
	f := u.Formula(depth)

	// solve runs the instance under rec (nil: no recorder), timed after a
	// collection, so no solve pays for the garbage of the one before.
	solve := func(i int, rec sat.ProofRecorder) (sat.Status, time.Duration) {
		opts := sat.Options{MaxConflicts: cfg.PerInstanceConflicts, Recorder: rec}
		runtime.GC()
		start := time.Now()
		res := sat.New(f, opts).Solve()
		row.Decisions[i] = res.Stats.Decisions
		return res.Status, time.Since(start)
	}

	// Walk down from the requested depth until an instance fits the
	// conflict budget (hard models at capped budgets may not).
	var simple *core.Recorder
	for {
		simple = core.NewRecorder(f.NumClauses())
		st, wall := solve(1, simple)
		if st == sat.Unsat {
			row.Simplified = wall
			break
		}
		depth--
		if depth < 0 {
			return row, fmt.Errorf("no in-budget UNSAT instance (last status %v)", st)
		}
		f = u.Formula(depth)
		row.Depth = depth
	}
	_, row.Off = solve(0, nil)
	full := core.NewRecorderWith(f.NumClauses(), core.Complete)
	if st, _ := solve(2, full); st != sat.Unsat {
		return row, fmt.Errorf("depth-%d re-solve not UNSAT (%v)", depth, st)
	}
	row.LearnedClauses = simple.NumLearnedRecorded()
	row.SimplifiedBytes = simple.ApproxBytes()
	// What the search left, before extracting the core grows the sweep's
	// scratch, which the simplified recorder was never asked for.
	row.FullBytes = full.ApproxBytes()
	if _, err := full.Certify(f, nil); err != nil {
		return row, fmt.Errorf("depth %d: %w", depth, err)
	}
	return row, nil
}

// Write renders the §3.1 table.
func (r *CDGMemoryResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Sec. 3.1: CDG bookkeeping on each model's deepest UNSAT instance, one search:")
	fmt.Fprintln(w, "recorder off vs simplified CDG in time, simplified vs complete CDG in bytes")
	fmt.Fprintf(w, "%-16s %4s %8s %9s %9s %8s %13s %13s %7s\n",
		"model", "k", "learned", "off (s)", "simpl (s)", "overhead", "simplified B", "complete B", "ratio")
	writeRule(w, 96)
	var off, simplified time.Duration
	var ratios float64
	for _, row := range r.Rows {
		off, simplified = off+row.Off, simplified+row.Simplified
		ratios += float64(row.FullBytes) / float64(row.SimplifiedBytes)
		fmt.Fprintf(w, "%-16s %4d %8d %9s %9s %8s %13d %13d %6.1fx\n",
			row.Name, row.Depth, row.LearnedClauses, fmtDuration(row.Off), fmtDuration(row.Simplified),
			ratio(row.Off, row.Simplified), row.SimplifiedBytes, row.FullBytes,
			float64(row.FullBytes)/float64(row.SimplifiedBytes))
	}
	writeRule(w, 96)
	fmt.Fprintf(w, "aggregate overhead: simplified at %s of off (paper reports about 105%%)\n", ratio(off, simplified))
	fmt.Fprintf(w, "mean complete/simplified ratio: %.1fx (every proof and core certified by RUP)\n",
		ratios/float64(max(len(r.Rows), 1)))
}
