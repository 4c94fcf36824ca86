package racer

// The clause exchange bus: after each depth's race has fully joined, every
// racer's fresh learned clauses that pass the quality filter are broadcast
// to every other racer. Sharing is sound because a racer brought to depth k
// holds the identical original clause set as every other (frames 0..k, fed
// by Feed.CatchUp) and a clause learned at depth k is imported only by a
// solver that holds those frames, making each learned clause a logical
// consequence valid in any of them; see sat.Solver.ImportClause for the
// contract.

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

// Exchange defaults: glue-ish clauses only, bounded volume per depth. The
// remote executor filters the clauses it forwards between workers with the
// same three.
const (
	DefaultExchangeMaxLen = 8
	DefaultExchangeMaxLBD = 4
	DefaultExchangeBudget = 256
)

// withDefaults resolves the zero/negative conventions documented on the
// fields.
func (e ExchangeOptions) withDefaults() ExchangeOptions {
	switch {
	case e.MaxLen == 0:
		e.MaxLen = DefaultExchangeMaxLen
	case e.MaxLen < 0:
		e.MaxLen = 0
	}
	switch {
	case e.MaxLBD == 0:
		e.MaxLBD = DefaultExchangeMaxLBD
	case e.MaxLBD < 0:
		e.MaxLBD = 0
	}
	switch {
	case e.PerRacerBudget == 0:
		e.PerRacerBudget = DefaultExchangeBudget
	case e.PerRacerBudget < 0:
		e.PerRacerBudget = 0
	}
	return e
}

// foreignSource labels, on the per-link bus series, clauses that no racer
// of the pool exported: portfolio.RaceResult.Foreign.
const foreignSource = "remote"

// exchange runs one depth-boundary round of the bus. Every solver is at
// rest here — RaceDepth calls it only after portfolio.RaceLive has joined
// all workers — so export and import touch each solver from this single
// goroutine. Broadcast order is racer order, which keeps runs with the
// same race outcomes deterministic; each recipient's ImportClause dedups
// clauses that arrive from several senders.
func (p *Pool) exchange(out *DepthOutcome, k int) {
	ex := p.cfg.Exchange
	for i, from := range p.racers {
		if from.feed.Solver == nil {
			continue // never loaded: it has learned nothing
		}
		clauses := from.feed.Solver.ExportLearned(from.exportMark, ex.MaxLen, ex.MaxLBD, ex.PerRacerBudget)
		from.exportMark = from.feed.Solver.NextClauseID()
		if len(clauses) == 0 {
			continue
		}
		if ex.OnExport != nil {
			ex.OnExport(k, from.name, clauses)
		}
		out.Exported[from.name] += int64(len(clauses))
		if p.cfg.Metrics != nil {
			p.cfg.Metrics.Counter(p.name(metricBusExported, "from", from.name)).Add(int64(len(clauses)))
		}
		p.deliver(out, k, from.name, clauses, func(to int) bool {
			return to == i || (ex.ReserveFirst && to == 0)
		})
	}
}

// deliver is the pool's one import path: a batch of clauses that arrived at
// depth boundary k goes to every racer skip does not exempt. A racer that
// raced this depth imports it now; one that is behind gets it when it
// catches up, and it is booked then (RaceDepthStop).
func (p *Pool) deliver(out *DepthOutcome, k int, from string, clauses []cnf.Clause, skip func(to int) bool) {
	for j, to := range p.racers {
		if skip(j) {
			continue
		}
		if rc, now := to.feed.Deliver(k, from, clauses); now {
			p.book(out, to, rc)
		}
	}
}

// book counts one imported batch toward the depth's traffic.
func (p *Pool) book(out *DepthOutcome, to *racerState, rc Receipt) {
	out.Imported[to.name] += rc.Accepted
	out.DedupDropped[to.name] += rc.Dropped
	if p.cfg.Metrics != nil {
		// Per-link series: the wire-visible health signal of each
		// from→to edge of the bus mesh.
		p.cfg.Metrics.Counter(p.name(metricBusImported, "from", rc.From, "to", to.name)).Add(rc.Accepted)
		p.cfg.Metrics.Counter(p.name(metricBusDedupDropped, "from", rc.From, "to", to.name)).Add(rc.Dropped)
	}
}
