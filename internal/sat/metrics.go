package sat

import "repro/internal/obs"

// Metrics is the solver's bundle of obs counter handles. It is flushed
// once per Solve/SolveAssuming call from the Stats the search already
// maintains — the search loop itself is untouched, time-in-solve reuses
// the per-call SolveTime measurement, and no new clock syscalls or
// atomic operations happen per propagation. A nil *Metrics costs one
// branch per Solve call.
type Metrics struct {
	Decisions    *obs.Counter // branching assignments
	Propagations *obs.Counter // BCP implications
	Conflicts    *obs.Counter
	Restarts     *obs.Counter
	Learned      *obs.Counter
	Deleted      *obs.Counter
	Solves       *obs.Counter // Solve/SolveAssuming calls completed
	SolveNanos   *obs.Counter // wall time inside solve calls

	// ConflictsPerSolve distributes each call's conflict count — the
	// shape distinguishes "many easy queries" from "few hard ones" at
	// equal totals.
	ConflictsPerSolve *obs.Histogram

	// ClausesLearnt and ClausesBytes are clause-database gauges: the
	// learnt clauses currently installed and the bytes the whole database
	// holds (Solver.Footprint: the arena's pages, the watch store's pages
	// and its 12-byte record per literal), refreshed once per solve call
	// from flushDB.
	// Gauges, not counters: reduceDB shrinks the first.
	ClausesLearnt *obs.Gauge
	ClausesBytes  *obs.Gauge
}

// Solver metric base names (family_metric convention, enforced with the
// catalogue by internal/remote's TestMetricCatalogue).
const (
	metricSolverDecisions         = "solver_decisions_total"
	metricSolverPropagations      = "solver_propagations_total"
	metricSolverConflicts         = "solver_conflicts_total"
	metricSolverRestarts          = "solver_restarts_total"
	metricSolverLearned           = "solver_learned_total"
	metricSolverDeleted           = "solver_deleted_total"
	metricSolverSolves            = "solver_solves_total"
	metricSolverSolveNanos        = "solver_solve_nanos_total"
	metricSolverConflictsPerSolve = "solver_conflicts_per_solve"
	metricSolverClausesLearnt     = "solver_clauses_learnt"
	metricSolverClausesBytes      = "solver_clauses_bytes"
)

// NewMetrics registers the solver metric family under reg with the
// given label pairs (e.g. "strategy", "vsids", "query", "bmc") baked
// into every series. A nil registry yields a *Metrics full of nil
// handles, which flushes as a no-op.
func NewMetrics(reg *obs.Registry, labels ...string) *Metrics {
	n := func(base string) string { return obs.Name(base, labels...) }
	return &Metrics{
		Decisions:         reg.Counter(n(metricSolverDecisions)),
		Propagations:      reg.Counter(n(metricSolverPropagations)),
		Conflicts:         reg.Counter(n(metricSolverConflicts)),
		Restarts:          reg.Counter(n(metricSolverRestarts)),
		Learned:           reg.Counter(n(metricSolverLearned)),
		Deleted:           reg.Counter(n(metricSolverDeleted)),
		Solves:            reg.Counter(n(metricSolverSolves)),
		SolveNanos:        reg.Counter(n(metricSolverSolveNanos)),
		ConflictsPerSolve: reg.Histogram(n(metricSolverConflictsPerSolve)),
		ClausesLearnt:     reg.Gauge(n(metricSolverClausesLearnt)),
		ClausesBytes:      reg.Gauge(n(metricSolverClausesBytes)),
	}
}

// flush folds one call's Stats into the counters.
func (m *Metrics) flush(st Stats) {
	if m == nil {
		return
	}
	m.Decisions.Add(st.Decisions)
	m.Propagations.Add(st.Implications)
	m.Conflicts.Add(st.Conflicts)
	m.Restarts.Add(st.Restarts)
	m.Learned.Add(st.Learned)
	m.Deleted.Add(st.Deleted)
	m.Solves.Inc()
	m.SolveNanos.Add(int64(st.SolveTime))
	m.ConflictsPerSolve.Observe(st.Conflicts)
}

// flushDB refreshes the clause-database gauges. Called once per solve
// call, never from the search loop.
func (m *Metrics) flushDB(bytes int64, learnt int) {
	if m == nil {
		return
	}
	m.ClausesLearnt.Set(int64(learnt))
	m.ClausesBytes.Set(bytes)
}
