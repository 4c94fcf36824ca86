// Package racer implements the warm portfolio: a pool of persistent
// per-strategy incremental SAT solvers that live across the whole BMC run,
// raced against each other at every unrolling depth, plus the clause
// exchange bus that redistributes their best learned clauses between
// depths.
//
// The cold portfolio (portfolio.Race driven by internal/engine) builds
// one solver per strategy per depth: when the race is decided, every
// cancelled loser's learned clauses — reported as WastedConflicts — and
// even the winner's warm VSIDS and phase state are thrown away. The pool
// keeps each racer alive instead. Every depth it
//
//   - feeds the new frame's clauses (unroll.Delta.Frame) to every racer,
//   - re-applies the strategy's per-depth guidance (sat.SetGuidance),
//   - races SolveAssuming on the depth's activation literal through
//     portfolio.RaceLive (first verdict cancels the rest cooperatively),
//   - folds the winner's unsat core into the shared score board, and
//   - runs the clause bus: short (length/LBD-filtered) learned clauses
//     from all racers — the winner and the cancelled losers alike — are
//     exported (sat.Solver.ExportLearned) and imported into every other
//     racer (sat.Solver.ImportClause), so one racer's conflicts become
//     every racer's warm-start capital at the next depth.
//
// Clause import into a live solver is only sound while the solver is at
// rest, so the bus runs strictly at depth boundaries: RaceDepth exchanges
// only after portfolio.RaceLive has joined every worker goroutine, which
// keeps the pool race-detector-clean without any locking inside the
// solver.
package racer

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// Racer and clause-bus metric base names (family_metric convention,
// enforced by bmclint/metricname).
const (
	metricRacerConflicts  = "racer_conflicts_total"
	metricRacerWins       = "racer_wins_total"
	metricBusExported     = "bus_exported_total"
	metricBusImported     = "bus_imported_total"
	metricBusDedupDropped = "bus_dedup_dropped_total"
)

// RaceFunc races a set of live solvers under an assumption list and
// returns the first verdict, cancelling the rest — portfolio.RaceLive
// with the pool's query label prepended. The pool calls it for every
// depth; injecting a different implementation (engine.Executor) is how
// race execution is swapped without the pool knowing where the solvers
// actually run. query is Config.Query verbatim, so a distributing
// implementation can route the attempts to the mirrors of the right
// instance sequence.
type RaceFunc func(query string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult

// Config configures a warm racer pool. The zero value is not usable on
// its own — Strategies and the base Solver options come from the caller
// (engine.Session translates its configuration).
type Config struct {
	// Strategies is the raced set, one persistent solver each (default:
	// the full four-way portfolio.DefaultSet).
	Strategies portfolio.StrategySet
	// Jobs caps how many solvers run concurrently per depth (<= 0 means
	// one per strategy; see portfolio.Race on why it is not clamped to
	// GOMAXPROCS).
	Jobs int
	// Solver carries the base solver options; the per-strategy fields
	// (Guidance, SwitchAfterDecisions, Recorder, Stop) are managed by the
	// pool.
	Solver sat.Options
	// ScoreMode selects the bmc_score accumulation rule for the shared
	// board.
	ScoreMode core.ScoreMode
	// SwitchDivisor overrides the dynamic strategy's switch divisor
	// (default core.SwitchDivisor).
	SwitchDivisor int
	// PerInstanceConflicts bounds each racer's per-depth SolveAssuming
	// call (0 = unlimited; per-call counters reset between depths).
	PerInstanceConflicts int64
	// Deadline bounds every solve (zero = none).
	Deadline time.Time
	// ForceRecording attaches CDG recorders even when no strategy
	// consumes cores.
	ForceRecording bool
	// Exchange configures the clause bus; the zero value leaves it off.
	Exchange ExchangeOptions
	// Race runs each depth's race; nil selects portfolio.RaceLive (the
	// in-process goroutine pool). engine.LocalExecutor injects itself
	// here so the Executor seam covers warm races too.
	Race RaceFunc
	// OnFrame, when non-nil, observes every frame right after the pool
	// has fed it to its own solvers and before the depth's race: depth k
	// and the frame's delta formula. The frame must not be mutated but
	// may be retained — this is how a frame-mirroring executor
	// (engine.FrameSink) keeps remote solver mirrors in sync with the
	// pool's solvers.
	OnFrame func(k int, frame *cnf.Formula)
	// Metrics, when non-nil, receives the pool's instrumentation: each
	// racer's solver counters (via sat.Options.Metrics), per-racer
	// warm/cold conflict attribution, and per-link clause-bus traffic.
	// Query labels every series ("bmc", "base", "step"; empty means the
	// query label is omitted).
	Metrics *obs.Registry
	Query   string
}

// racerState is one persistent racer: a named strategy, its live solver,
// and the cross-depth bookkeeping the pool keeps per racer.
type racerState struct {
	name     string
	strategy core.Strategy
	solver   *sat.Solver
	// rec is the racer's own cross-depth CDG (recorders are per-goroutine
	// state and must never be shared between racers). It also holds the
	// literals of its leaves — frame clauses and bus imports — which is
	// what resolves a core to variables. Nil when no strategy uses cores.
	rec *core.Recorder
	// exportMark is the clause-ID high-water mark of the last export;
	// only clauses learned after it leave through the bus.
	exportMark sat.ClauseID
	// exported/imported are lifetime bus counters (telemetry and the
	// sharing half of win attribution).
	exported, imported int64
	// obs handles (nil when Config.Metrics is off). Warm/cold split the
	// racer's conflicts by whether its solver carried state from earlier
	// depths into the solve.
	mWarmConflicts *obs.Counter
	mColdConflicts *obs.Counter
	mWins          *obs.Counter
}

// Pool owns the racers for one BMC run: it manages their lifecycle
// (create once, feed every frame, race every depth), the shared score
// board, and the clause bus. A Pool is not goroutine-safe — the depth
// loop drives it sequentially, and concurrency happens only inside
// RaceDepth's portfolio.RaceLive call.
type Pool struct {
	src     Source
	cfg     Config
	board   *core.ScoreBoard
	racers  []*racerState
	divisor int

	// Cumulative formula size across fed frames (every racer holds the
	// same original clause set, so one set of counters serves all).
	totalClauses int
	totalLits    int
}

// NewPool builds one persistent solver per strategy over an empty clause
// set; frames arrive depth by depth through RaceDepth, pulled from the
// given query sequence (DeltaSource for BMC / induction base cases,
// StepSource for induction step cases). Mirroring the engine's
// fresh-solver sequence, recorders are attached to every racer as soon as
// any strategy in the set consumes cores, so whichever racer wins an
// UNSAT depth has a core to contribute to the board.
func NewPool(src Source, cfg Config) *Pool {
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = portfolio.DefaultSet()
	}
	if cfg.Race == nil {
		cfg.Race = func(_ string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
			return portfolio.RaceLive(attempts, assumps, jobs, stop)
		}
	}
	cfg.Exchange = cfg.Exchange.withDefaults()
	p := &Pool{
		src:     src,
		cfg:     cfg,
		board:   core.NewScoreBoard(cfg.ScoreMode),
		divisor: cfg.SwitchDivisor,
	}
	if p.divisor == 0 {
		p.divisor = core.SwitchDivisor
	}
	useCores := cfg.ForceRecording
	for _, st := range cfg.Strategies {
		if st == core.OrderStatic || st == core.OrderDynamic {
			useCores = true
		}
	}
	for _, st := range cfg.Strategies {
		solverOpts := cfg.Solver
		solverOpts.Guidance = nil
		solverOpts.SwitchAfterDecisions = 0
		solverOpts.Recorder = nil
		solverOpts.Stop = nil
		if cfg.PerInstanceConflicts > 0 {
			solverOpts.MaxConflicts = cfg.PerInstanceConflicts
		}
		if !cfg.Deadline.IsZero() {
			solverOpts.Deadline = cfg.Deadline
		}
		r := &racerState{name: st.String(), strategy: st}
		if useCores {
			r.rec = core.NewRecorderWith(0, core.WithLeaves)
			solverOpts.Recorder = r.rec
		}
		if cfg.Metrics != nil {
			solverOpts.Metrics = sat.NewMetrics(cfg.Metrics, p.labels("strategy", r.name)...)
			r.mWarmConflicts = cfg.Metrics.Counter(p.name(metricRacerConflicts, "strategy", r.name, "state", "warm"))
			r.mColdConflicts = cfg.Metrics.Counter(p.name(metricRacerConflicts, "strategy", r.name, "state", "cold"))
			r.mWins = cfg.Metrics.Counter(p.name(metricRacerWins, "strategy", r.name))
		}
		r.solver = sat.New(cnf.New(0), solverOpts)
		p.racers = append(p.racers, r)
	}
	return p
}

// labels prepends the pool's query label (when set) to the given pairs.
func (p *Pool) labels(pairs ...string) []string {
	if p.cfg.Query == "" {
		return pairs
	}
	return append([]string{"query", p.cfg.Query}, pairs...)
}

// name composes a pool metric name carrying the query label.
func (p *Pool) name(base string, pairs ...string) string {
	return obs.Name(base, p.labels(pairs...)...)
}

// Strategies returns the raced strategy names in set order.
func (p *Pool) Strategies() []string { return p.cfg.Strategies.Names() }

// Board returns the shared score board the pool feeds winner cores into.
func (p *Pool) Board() *core.ScoreBoard { return p.board }

// DepthOutcome is what one RaceDepth call reports back to the depth loop:
// the race itself, the winner's core (UNSAT depths with recording), the
// depth's clause-bus traffic, and the cumulative formula size.
type DepthOutcome struct {
	Race portfolio.RaceResult
	// CoreClauses/CoreVars/RecorderBytes describe the winner's extracted
	// unsat core (zero on SAT, undecided, or recording-off depths).
	CoreClauses   int
	CoreVars      int
	RecorderBytes int64
	// FrameVars is the variable count after this depth's frame;
	// TotalClauses/TotalLits the cumulative original-clause footprint.
	FrameVars    int
	TotalClauses int
	TotalLits    int
	// Exported/Imported count this depth's clause-bus traffic per
	// strategy (empty maps when the bus is off or idle); DedupDropped
	// counts, per recipient strategy, inbound clauses its solver rejected
	// as duplicates it already held.
	Exported     map[string]int64
	Imported     map[string]int64
	DedupDropped map[string]int64
	// EncodeWall is the time spent feeding this depth's frame into every
	// racer (the depth's encode cost; the race's solve cost is Race.Wall).
	EncodeWall time.Duration
	// WinnerWarm reports that the winning racer had searched at earlier
	// depths (its solver carried learned clauses in); WinnerShared that
	// it had additionally imported foreign clauses before this solve.
	WinnerWarm   bool
	WinnerShared bool
}

// RaceDepth runs one full depth: feed the depth-k frame to every racer,
// re-apply per-depth guidance, race SolveAssuming(actₖ), fold the
// winner's core into the board, and — with the bus enabled — exchange
// learned clauses between the racers. Depths must be raced in order
// starting at 0.
func (p *Pool) RaceDepth(k int) DepthOutcome { return p.RaceDepthStop(k, nil) }

// RaceDepthStop is RaceDepth with an external cancellation channel: when
// stop closes, the depth's race is abandoned cooperatively (Winner == -1
// unless a verdict landed first) and every racer's solver stays valid for
// the next depth. The k-induction engine uses it to kill a step race whose
// base case has already decided the verdict. The depth-boundary work —
// core folding and the clause bus — still runs after the race joins, so a
// cancelled depth's conflicts are not thrown away.
func (p *Pool) RaceDepthStop(k int, stop <-chan struct{}) DepthOutcome {
	encodeStart := time.Now()
	frame := p.src.Frame(k)
	for _, r := range p.racers {
		r.solver.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			id := r.solver.AddClause(cl)
			if r.rec != nil {
				r.rec.AddLeaf(id, cl)
			}
		}
	}
	p.totalClauses += frame.NumClauses()
	p.totalLits += frame.NumLiterals()
	if p.cfg.OnFrame != nil {
		p.cfg.OnFrame(k, frame)
	}
	encodeWall := time.Since(encodeStart)

	attempts := make([]portfolio.LiveAttempt, len(p.racers))
	warm := make([]bool, len(p.racers))
	sharedState := make([]bool, len(p.racers))
	for i, r := range p.racers {
		ApplyStrategy(r.solver, r.strategy, p.board, p.src, k, p.totalLits, p.divisor)
		attempts[i] = portfolio.LiveAttempt{Name: r.name, Solver: r.solver}
		warm[i] = r.solver.Stats().Conflicts > 0
		sharedState[i] = r.imported > 0
	}

	out := DepthOutcome{
		Race:         p.cfg.Race(p.cfg.Query, attempts, []lits.Lit{p.src.Assumption(k)}, p.cfg.Jobs, stop),
		FrameVars:    frame.NumVars,
		TotalClauses: p.totalClauses,
		TotalLits:    p.totalLits,
		Exported:     map[string]int64{},
		Imported:     map[string]int64{},
		DedupDropped: map[string]int64{},
		EncodeWall:   encodeWall,
	}

	if p.cfg.Metrics != nil {
		// Attribute each racer's conflicts to its warm/cold state going
		// into this depth (its solver's own counters were already flushed
		// by SolveAssuming; this split is pool-level knowledge).
		for i, o := range out.Race.Outcomes {
			if o.Skipped {
				continue
			}
			if warm[i] {
				p.racers[i].mWarmConflicts.Add(o.Stats.Conflicts)
			} else {
				p.racers[i].mColdConflicts.Add(o.Stats.Conflicts)
			}
		}
	}

	if w := out.Race.Winner; w >= 0 {
		out.WinnerWarm = warm[w]
		out.WinnerShared = sharedState[w]
		p.racers[w].mWins.Inc()
		if out.Race.Result.Status == sat.Unsat {
			out.FoldCore(p.racers[w].rec, p.board, k, nil, frame.NumVars, auxOf(p.src))
		}
	}
	// Clear every racer's final-conflict marker: losers that decided
	// Unsat after the winner (or the winner itself) must not leak this
	// depth's proof into the next one.
	for _, r := range p.racers {
		if r.rec != nil {
			r.rec.ResetFinal()
		}
	}

	if p.cfg.Exchange.Enabled {
		p.exchange(&out, k)
	}
	return out
}

// auxOf returns the predicate for the source's auxiliary variables, which
// stay out of core variable sets.
func auxOf(src Source) func(lits.Var) bool {
	return func(v lits.Var) bool {
		_, aux := src.VarInfo(v)
		return aux
	}
}

// FoldCore is the paper's update_ranking for the depth-k instance: it
// extracts the unsat core the winner's recorder holds — one traversal —
// reports its size, and folds its variables into the score board weighted
// by the 1-based instance number. The engine's freshSeq and the warm pool
// both end an UNSAT depth here; originals, nVars and aux are
// core.Recorder.CoreVarsOf's. A nil recorder, or one without a proof (the
// winner ran on a remote worker), folds nothing.
func (out *DepthOutcome) FoldCore(rec *core.Recorder, board *core.ScoreBoard, k int, originals *cnf.Formula, nVars int, aux func(lits.Var) bool) {
	if rec == nil || !rec.HasProof() {
		return
	}
	ids := rec.Core()
	vars := rec.CoreVarsOf(ids, originals, nVars, aux)
	out.CoreClauses = len(ids)
	out.CoreVars = len(vars)
	out.RecorderBytes = rec.ApproxBytes()
	board.Update(vars, k+1)
}

// ApplyStrategy re-applies one ordering strategy to a live solver before
// a depth-k SolveAssuming, using the source's numbering throughout:
// board-fed guidance for static/dynamic (with the dynamic switch
// threshold derived from totalLits/divisor), frame scores for timeaxis
// (earlier frames higher; the encoding's auxiliary variables — activation
// guards, disequality helpers — are left unscored), plain VSIDS
// otherwise. Every live solver is configured here (the engine's
// single-strategy incremental shape is a pool of one; the benchmark's layer
// driver calls it directly): the one place the strategy semantics live.
func ApplyStrategy(s *sat.Solver, st core.Strategy, board *core.ScoreBoard, src Source, k, totalLits, divisor int) {
	nVars := src.NumVars(k)
	switch st {
	case core.OrderStatic:
		s.SetGuidance(board.Guidance(nVars), 0)
	case core.OrderDynamic:
		var switchAfter int64
		if divisor > 0 {
			switchAfter = int64(totalLits / divisor)
			if switchAfter < 1 {
				switchAfter = 1
			}
		}
		s.SetGuidance(board.Guidance(nVars), switchAfter)
	case core.OrderTimeAxis:
		frames := src.Frames(k)
		g := make([]float64, nVars+1)
		for v := 1; v <= nVars; v++ {
			frame, aux := src.VarInfo(lits.Var(v))
			if aux {
				continue
			}
			g[v] = float64(frames - frame)
		}
		s.SetGuidance(g, 0)
	default: // OrderVSIDS: plain Chaff ordering
		s.SetGuidance(nil, 0)
	}
}

// CoreVars is core.Vars over a caller-kept ID-to-literals map, with the
// source's auxiliary variables excluded. Kept for benchmark/driver.go,
// which keeps such a map beside its recorder; the benchmark PR deletes it.
func CoreVars(src Source, coreIDs []sat.ClauseID, clausesByID map[sat.ClauseID]cnf.Clause, nVars int) []lits.Var {
	return core.Vars(len(coreIDs), func(i int) []lits.Lit { return clausesByID[coreIDs[i]] }, nVars, auxOf(src))
}
