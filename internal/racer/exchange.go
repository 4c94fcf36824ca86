package racer

// The clause exchange bus: after each depth's race has fully joined, every
// racer's fresh learned clauses that pass the quality filter are broadcast
// into every other racer. Sharing is sound because all racers hold the
// identical original clause set (the pool feeds every frame to everyone),
// making each learned clause a logical consequence valid in any of them;
// see sat.Solver.ImportClause for the contract.

import "repro/internal/cnf"

// ExchangeOptions configures the clause bus.
type ExchangeOptions struct {
	// Enabled turns the bus on; the zero value leaves the pool warm but
	// silent (persistent solvers, no sharing).
	Enabled bool
	// MaxLen and MaxLBD are the export quality filter: a learned clause
	// qualifies when its length is at most MaxLen or its LBD at most
	// MaxLBD. Zero selects the defaults (8 and 4); a negative value
	// disables that criterion.
	MaxLen int
	MaxLBD int
	// PerRacerBudget caps how many clauses one racer exports per depth,
	// keeping the lowest-LBD ones. Zero selects the default (256); a
	// negative value removes the cap.
	PerRacerBudget int
	// OnExport, when non-nil, observes each racer's exported payload right
	// after it is pulled off the solver and before it is redistributed:
	// depth k, the exporting strategy's name, and the clauses themselves
	// (plain literal slices — the designed wire format). This is the
	// clause-bus payload hook of the engine.Executor seam: a remote
	// executor forwards the payload to its workers, the local executor
	// needs nothing (in-process redistribution happens right below). The
	// slice is shared with the importing side and must not be mutated.
	OnExport func(k int, from string, clauses []cnf.Clause)
	// ReserveFirst keeps the first racer import-free (it still exports).
	// Feeding every racer the identical clause diet converges their search
	// trajectories, which costs the portfolio exactly the diversity its
	// min-of-strategies latency comes from — a real hazard on SAT
	// (model-hunting) sequences, where a shared wrong turn slows the whole
	// race. An import-free reserve bounds that risk: one racer always
	// searches the way it would have alone. UNSAT-heavy sequences lose
	// little (the reserve's own learned clauses still reach everyone
	// else). The k-induction warm pools set this; the BMC pool keeps the
	// full-mesh bus.
	ReserveFirst bool
}

// Exchange defaults: glue-ish clauses only, bounded volume per depth.
const (
	defaultExchangeMaxLen = 8
	defaultExchangeMaxLBD = 4
	defaultExchangeBudget = 256
)

// withDefaults resolves the zero/negative conventions documented on the
// fields.
func (e ExchangeOptions) withDefaults() ExchangeOptions {
	switch {
	case e.MaxLen == 0:
		e.MaxLen = defaultExchangeMaxLen
	case e.MaxLen < 0:
		e.MaxLen = 0
	}
	switch {
	case e.MaxLBD == 0:
		e.MaxLBD = defaultExchangeMaxLBD
	case e.MaxLBD < 0:
		e.MaxLBD = 0
	}
	switch {
	case e.PerRacerBudget == 0:
		e.PerRacerBudget = defaultExchangeBudget
	case e.PerRacerBudget < 0:
		e.PerRacerBudget = 0
	}
	return e
}

// exchange runs one depth-boundary round of the bus. Every solver is at
// rest here — RaceDepth calls it only after portfolio.RaceLive has joined
// all workers — so export and import touch each solver from this single
// goroutine. Broadcast order is racer order, which keeps runs with the
// same race outcomes deterministic; each recipient's ImportClause dedups
// clauses that arrive from several senders.
func (p *Pool) exchange(out *DepthOutcome, k int) {
	ex := p.cfg.Exchange
	for i, from := range p.racers {
		clauses := from.solver.ExportLearned(from.exportMark, ex.MaxLen, ex.MaxLBD, ex.PerRacerBudget)
		from.exportMark = from.solver.NextClauseID()
		if len(clauses) == 0 {
			continue
		}
		if ex.OnExport != nil {
			ex.OnExport(k, from.name, clauses)
		}
		from.exported += int64(len(clauses))
		out.Exported[from.name] += int64(len(clauses))
		if p.cfg.Metrics != nil {
			p.cfg.Metrics.Counter(p.name(metricBusExported, "from", from.name)).Add(int64(len(clauses)))
		}
		for j, to := range p.racers {
			if j == i || (ex.ReserveFirst && j == 0) {
				continue
			}
			var accepted, dropped int64
			for _, cl := range clauses {
				id, ok := to.solver.ImportClause(cl)
				if !ok {
					dropped++
					continue
				}
				accepted++
				to.imported++
				if to.rec != nil {
					// An import is a leaf of the recipient's CDG, like an
					// original: core extraction resolves it to variables.
					to.rec.AddLeaf(id, cl)
				}
			}
			out.Imported[to.name] += accepted
			out.DedupDropped[to.name] += dropped
			if p.cfg.Metrics != nil {
				// Per-link series: the wire-visible health signal of each
				// from→to edge of the bus mesh.
				p.cfg.Metrics.Counter(p.name(metricBusImported, "from", from.name, "to", to.name)).Add(accepted)
				p.cfg.Metrics.Counter(p.name(metricBusDedupDropped, "from", from.name, "to", to.name)).Add(dropped)
			}
		}
	}
}
