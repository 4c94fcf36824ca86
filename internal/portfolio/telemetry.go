package portfolio

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sat"
)

// Portfolio metric base names (family_metric convention, enforced with
// the catalogue by internal/remote's TestMetricCatalogue).
const (
	metricPortfolioRaces          = "portfolio_races_total"
	metricPortfolioWins           = "portfolio_wins_total"
	metricPortfolioLoserConflicts = "portfolio_loser_conflicts_total"
	metricPortfolioQueueWait      = "portfolio_queue_wait_nanos"
	metricPortfolioAbortedRaces   = "portfolio_aborted_races_total"
)

// DepthWin records who won one depth's race and what the race cost.
type DepthWin struct {
	K      int
	Winner string // "" when the race was undecided
	Status sat.Status
	// WinnerConflicts / LoserConflicts split the race's total search
	// effort into the part that produced the verdict and the part thrown
	// away with the cancelled racers.
	WinnerConflicts int64
	LoserConflicts  int64
	Wall            time.Duration
}

// Telemetry aggregates per-strategy win/loss statistics across the depths
// of one portfolio BMC run (and renders the CLI summary). It is not
// goroutine-safe; races are observed sequentially by the depth loop.
type Telemetry struct {
	Depths []DepthWin
	// Wins / CancelledRuns / SkippedRuns count, per strategy name, how its
	// racers fared across all depths.
	Wins          map[string]int
	CancelledRuns map[string]int
	SkippedRuns   map[string]int
	// ConflictsSpent is each strategy's total search effort (winning or
	// not); WastedConflicts is the portion spent by losing racers only.
	ConflictsSpent  map[string]int64
	WastedConflicts int64

	// Clause-bus telemetry, fed by the warm racer pool through
	// ObserveExchange (all zero for cold portfolios): how many learned
	// clauses each strategy's solver put on / took off the exchange bus,
	// and how many inbound clauses each strategy's solver rejected as
	// duplicates it already held (the bus's dedup drops).
	ExportedClauses map[string]int64
	ImportedClauses map[string]int64
	DedupDropped    map[string]int64
	// Warm-vs-cold win attribution. WarmWins counts depth wins by a racer
	// whose solver carried learned clauses from earlier depths (any depth
	// > 0 winner in a warm pool); SharedWins the subset whose solver had
	// additionally imported foreign clauses before the winning solve —
	// the races where the clause bus could have contributed.
	WarmWins   int
	SharedWins int

	// AbortedRaces counts races the caller cancelled deliberately before
	// their verdict could matter (the k-induction step race of a depth
	// whose base case already decided the outcome). Their outcomes carry
	// no win/loss signal — ObserveAborted keeps them out of Wins,
	// CancelledRuns, SkippedRuns, and ConflictsSpent, recording only the
	// count and the conflicts burned, so deliberate cancellations cannot
	// skew the per-strategy win rates.
	AbortedRaces     int
	AbortedConflicts int64

	// obs wiring (SetMetrics); all nil-safe, so an unwired telemetry
	// records maps only.
	reg   *obs.Registry
	query string
}

// NewTelemetry returns an empty telemetry accumulator.
func NewTelemetry() *Telemetry {
	return &Telemetry{
		Wins:            map[string]int{},
		CancelledRuns:   map[string]int{},
		SkippedRuns:     map[string]int{},
		ConflictsSpent:  map[string]int64{},
		ExportedClauses: map[string]int64{},
		ImportedClauses: map[string]int64{},
		DedupDropped:    map[string]int64{},
	}
}

// SetMetrics mirrors every Observe* call into reg under the given query
// label ("bmc", "base", "step"): race counts, per-strategy wins, aborted
// races, and a queue-wait histogram. A nil registry leaves the telemetry
// map-only.
func (t *Telemetry) SetMetrics(reg *obs.Registry, query string) {
	t.reg = reg
	t.query = query
}

// metric resolves a handle under the telemetry's query label plus any
// extra label pairs. Nil-safe: an unwired telemetry gets nil handles.
func (t *Telemetry) metric(base string, labels ...string) *obs.Counter {
	return t.reg.Counter(obs.Name(base, append([]string{"query", t.query}, labels...)...))
}

// Observe folds the race of depth k into the totals.
func (t *Telemetry) Observe(k int, r *RaceResult) {
	dw := DepthWin{K: k, Winner: r.WinnerName(), Wall: r.Wall}
	if r.Winner >= 0 {
		dw.Status = r.Result.Status
		dw.WinnerConflicts = r.Outcomes[r.Winner].Stats.Conflicts
		t.Wins[dw.Winner]++
	}
	dw.LoserConflicts = r.LoserConflicts()
	t.WastedConflicts += dw.LoserConflicts
	for _, o := range r.Outcomes {
		switch {
		case o.Skipped:
			t.SkippedRuns[o.Name]++
		case o.Canceled:
			t.CancelledRuns[o.Name]++
		}
		t.ConflictsSpent[o.Name] += o.Stats.Conflicts
	}
	t.Depths = append(t.Depths, dw)

	if t.reg != nil {
		t.metric(metricPortfolioRaces).Inc()
		if dw.Winner != "" {
			t.metric(metricPortfolioWins, "strategy", dw.Winner).Inc()
		}
		t.metric(metricPortfolioLoserConflicts).Add(dw.LoserConflicts)
		wait := t.reg.Histogram(obs.Name(metricPortfolioQueueWait, "query", t.query))
		for _, o := range r.Outcomes {
			if !o.Skipped {
				wait.Observe(int64(o.Wait))
			}
		}
	}
}

// ObserveAborted records a race the caller cancelled deliberately
// (verdict moot, not lost): only the aborted-race count and the conflicts
// its racers burned are accumulated. Nothing enters the win/loss columns
// or the per-depth winner log — a race nobody was allowed to finish is
// not evidence about any strategy.
func (t *Telemetry) ObserveAborted(k int, r *RaceResult) {
	t.AbortedRaces++
	for _, o := range r.Outcomes {
		t.AbortedConflicts += o.Stats.Conflicts
	}
	if t.reg != nil {
		t.metric(metricPortfolioAbortedRaces).Inc()
	}
}

// ObserveExchange folds one depth's clause-bus traffic and win
// attribution into the totals. exported/imported/dropped map strategy
// names to the clauses that depth moved (dropped counts inbound clauses a
// recipient rejected as duplicates); winnerWarm/winnerShared describe the
// depth's winning racer (both false when the race was undecided).
func (t *Telemetry) ObserveExchange(exported, imported, dropped map[string]int64, winnerWarm, winnerShared bool) {
	for name, n := range exported {
		t.ExportedClauses[name] += n
	}
	for name, n := range imported {
		t.ImportedClauses[name] += n
	}
	for name, n := range dropped {
		t.DedupDropped[name] += n
	}
	if winnerWarm {
		t.WarmWins++
	}
	if winnerShared {
		t.SharedWins++
	}
}

// dedupTotal sums the bus's duplicate drops across strategies.
func (t *Telemetry) dedupTotal() int64 {
	var n int64
	for _, d := range t.DedupDropped {
		n += d
	}
	return n
}

// exchangeActive reports whether any clause-bus traffic was recorded.
func (t *Telemetry) exchangeActive() bool {
	for _, n := range t.ExportedClauses {
		if n > 0 {
			return true
		}
	}
	for _, n := range t.ImportedClauses {
		if n > 0 {
			return true
		}
	}
	return false
}

// Strategies returns every strategy name seen, sorted by wins (descending)
// then name — the order the summary table uses.
func (t *Telemetry) Strategies() []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range t.ConflictsSpent {
		add(n)
	}
	for n := range t.Wins {
		add(n)
	}
	sort.Slice(names, func(i, j int) bool {
		if t.Wins[names[i]] != t.Wins[names[j]] {
			return t.Wins[names[i]] > t.Wins[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// WriteSummary renders the per-strategy scoreboard and the wasted-work
// figure — the CLI's "which ordering won where" report. When the warm
// pool's clause bus was active the table gains exported/imported columns
// and a warm-vs-cold attribution line.
func (t *Telemetry) WriteSummary(w io.Writer) {
	// The totals line carries every conflict bucket — losers, and conflicts
	// burned in deliberately aborted races (excluded from the per-strategy
	// columns) — plus the bus's duplicate drops, so this line reconciles
	// with lifetime solver stats.
	fmt.Fprintf(w, "portfolio: %d races, %d conflicts spent by losers",
		len(t.Depths), t.WastedConflicts)
	if t.AbortedConflicts > 0 {
		fmt.Fprintf(w, ", %d in aborted races", t.AbortedConflicts)
	}
	if drops := t.dedupTotal(); drops > 0 {
		fmt.Fprintf(w, ", %d duplicate clauses dropped by the bus", drops)
	}
	fmt.Fprintln(w)
	exchange := t.exchangeActive()
	fmt.Fprintf(w, "%-12s %6s %9s %8s %12s", "strategy", "wins", "cancelled", "skipped", "conflicts")
	if exchange {
		fmt.Fprintf(w, " %9s %9s %8s", "exported", "imported", "dropped")
	}
	fmt.Fprintln(w)
	for _, name := range t.Strategies() {
		fmt.Fprintf(w, "%-12s %6d %9d %8d %12d",
			name, t.Wins[name], t.CancelledRuns[name], t.SkippedRuns[name], t.ConflictsSpent[name])
		if exchange {
			fmt.Fprintf(w, " %9d %9d %8d", t.ExportedClauses[name], t.ImportedClauses[name], t.DedupDropped[name])
		}
		fmt.Fprintln(w)
	}
	if t.WarmWins > 0 || t.SharedWins > 0 {
		wins := 0
		for _, n := range t.Wins {
			wins += n
		}
		fmt.Fprintf(w, "warm pool: %d/%d wins by warm racers, %d aided by imported clauses\n",
			t.WarmWins, wins, t.SharedWins)
	}
	if t.AbortedRaces > 0 {
		fmt.Fprintf(w, "aborted: %d races cancelled before their verdict mattered (%d conflicts, excluded above)\n",
			t.AbortedRaces, t.AbortedConflicts)
	}
}
