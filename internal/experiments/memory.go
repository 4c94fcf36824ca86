package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/proofcheck"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// CDGMemoryRow compares, for one model's deepest UNSAT instance, the
// footprint of the simplified CDG (pseudo IDs only) against the complete
// CDG (clause literals retained) — the comparison behind the paper's §3.1
// claim that "compared to the number of literals in the conflict clauses,
// which is often in the hundreds, the overhead of the pseudo ID is small".
// The complete recorder's proof and core are certified by proofcheck, so a
// row exists only for a genuine refutation.
type CDGMemoryRow struct {
	Name            string
	Depth           int
	LearnedClauses  int
	SimplifiedBytes int64
	FullBytes       int64
}

// CDGMemoryResult aggregates the memory-comparison rows.
type CDGMemoryResult struct {
	Rows []CDGMemoryRow
	// MeanRatio is the average full/simplified byte ratio.
	MeanRatio float64
}

// RunCDGMemory executes the comparison on the config's models, solving each
// model's deepest in-budget instance once per recorder. It works below
// the engine — one formula, two proof recorders — so it is not a Grid of
// engine configurations and not in the registry.
func RunCDGMemory(cfg Config) (*CDGMemoryResult, error) {
	res := &CDGMemoryResult{}
	var ratioSum float64
	var ratioN int
	for _, m := range cfg.models() {
		row, err := cdgMemoryOne(cfg, m)
		if err != nil {
			return nil, fmt.Errorf("cdgmemory %s: %w", m.Name, err)
		}
		if row.LearnedClauses == 0 {
			continue // BCP-only refutation: nothing to compare
		}
		if row.SimplifiedBytes > 0 {
			ratioSum += float64(row.FullBytes) / float64(row.SimplifiedBytes)
			ratioN++
		}
		res.Rows = append(res.Rows, row)
	}
	if ratioN > 0 {
		res.MeanRatio = ratioSum / float64(ratioN)
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

	solve := func(rec sat.ProofRecorder) sat.Status {
		opts := sat.Options{Recorder: rec}
		if cfg.PerInstanceConflicts > 0 {
			opts.MaxConflicts = cfg.PerInstanceConflicts
		}
		return sat.New(f, opts).Solve().Status
	}

	// Walk down from the requested depth until an instance fits the
	// conflict budget (hard models at capped budgets may not).
	var simple *core.Recorder
	for {
		simple = core.NewRecorder(f.NumClauses())
		st := solve(simple)
		if st == sat.Unsat {
			break
		}
		depth--
		if depth < 0 {
			return row, fmt.Errorf("no in-budget UNSAT instance (last status %v)", st)
		}
		f = u.Formula(depth)
		row.Depth = depth
	}
	full := core.NewRecorderWith(f.NumClauses(), core.Complete)
	if st := solve(full); st != sat.Unsat {
		return row, fmt.Errorf("depth-%d re-solve not UNSAT (%v)", depth, st)
	}
	row.LearnedClauses = simple.NumLearnedRecorded()
	row.SimplifiedBytes = simple.ApproxBytes()
	// What the search left, before extracting the core grows the sweep's
	// scratch, which the simplified recorder was never asked for.
	row.FullBytes = full.ApproxBytes()
	if err := proofcheck.Check(full.Proof(f, nil), full.Core()); err != nil {
		return row, fmt.Errorf("depth %d: %w", depth, err)
	}
	return row, nil
}

// Write renders the comparison table.
func (r *CDGMemoryResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Sec. 3.1: simplified vs complete CDG (deepest UNSAT instance per model)")
	fmt.Fprintf(w, "%-16s %6s %10s %14s %14s %8s\n",
		"model", "k", "learned", "simplified B", "complete B", "ratio")
	writeRule(w, 73)
	for _, row := range r.Rows {
		ratio := float64(row.FullBytes) / float64(row.SimplifiedBytes)
		fmt.Fprintf(w, "%-16s %6d %10d %14d %14d %7.1fx\n",
			row.Name, row.Depth, row.LearnedClauses,
			row.SimplifiedBytes, row.FullBytes, ratio)
	}
	writeRule(w, 73)
	fmt.Fprintf(w, "mean complete/simplified ratio: %.1fx (every proof and core certified by RUP)\n", r.MeanRatio)
}
