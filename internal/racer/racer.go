// Package racer implements the warm portfolio: a pool of persistent
// per-strategy incremental SAT solvers that live across the whole BMC run,
// raced against each other at every unrolling depth.
//
// The cold portfolio (portfolio.Race driven by internal/engine) builds
// one solver per strategy per depth: when the race is decided, every
// cancelled loser's learned clauses — reported as WastedConflicts — and
// even the winner's warm VSIDS and phase state are thrown away. The pool
// keeps each racer alive instead. Every depth it
//
//   - loads nobody up front: a racer takes the frames it is missing, and
//     the strategy's guidance for the depth (sat.SetGuidance), when it is
//     about to search (Feed.CatchUp, from its race goroutine), and the new
//     frame's clauses (unroll.Delta.Frame) are built once, by the first
//     racer that needs them — a racer that no worker slot ever reaches, or
//     whose races all run on a fleet, stays empty, and a depth raced on a
//     fleet encodes nothing here,
//   - races SolveAssuming on the depth's activation literal through
//     portfolio.RaceLive (first verdict cancels the rest cooperatively),
//   - folds the winner's unsat core into the shared score board.
//
// Each racer keeps only what it learned itself: no clause passes from one
// racer to another, so every leaf of a racer's proof is a frame clause.
// RaceDepth folds the core only after portfolio.RaceLive has joined every
// worker goroutine, and a racer's catch-up touches only that racer's
// solver and recorder, which keeps the pool race-detector-clean without
// any locking inside the solver.
package racer

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// Racer metric base names (family_metric convention, enforced with the
// catalogue by internal/remote's TestMetricCatalogue).
const (
	metricRacerConflicts = "racer_conflicts_total"
	metricRacerWins      = "racer_wins_total"
	metricRacerLoaded    = "racer_frames_loaded_total"
)

// ExchangeOptions is inert: the pool shares no clauses between its racers,
// and nothing reads Enabled. It stays only because the frozen benchmark
// (benchmark/workloads.go) still passes it to engine.WithExchange; the
// benchmark's next revision deletes both.
type ExchangeOptions struct {
	Enabled bool
}

// RaceFunc races a set of live attempts under an assumption list and
// returns the first verdict, cancelling the rest — portfolio.RaceLive
// with the pool's query label prepended. The pool calls it for every
// depth; injecting a different implementation (engine.Executor) is how
// race execution is swapped without the pool knowing where the solvers
// actually run: an implementation that never calls an attempt's Solver
// function leaves that racer unloaded. query is Config.Query verbatim, so
// a distributing implementation can route the attempts to the mirrors of
// the right instance sequence.
type RaceFunc func(query string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult

// Config configures a warm racer pool. It takes the session as
// engine.Session resolved it for both solver lifetimes — the options every
// attempt starts from, the score board, the switch divisor, whether to
// record proofs — so the pool derives none of them itself; Strategies, Opts
// and Board must be set.
type Config struct {
	// Strategies is the raced set, one persistent solver each.
	Strategies portfolio.StrategySet
	// Jobs caps how many solvers run concurrently per depth (<= 0 means
	// one per strategy; see portfolio.Race on why it is not clamped to
	// GOMAXPROCS).
	Jobs int
	// Opts is what every racer's per-depth SolveAssuming starts from:
	// tuning, conflict budget (per-call counters reset between depths) and
	// deadline, without hooks. The pool adds the depth's guidance and
	// switch threshold, and each racer's recorder and metrics.
	Opts sat.Options
	// Board is the score board the racers read guidance from and the
	// winners' cores are folded into.
	Board *core.ScoreBoard
	// Divisor is the dynamic strategy's switch divisor, as
	// core.Strategy.Guidance takes it.
	Divisor int
	// Record attaches a CDG recorder to every racer, so whichever racer
	// wins an UNSAT depth has a core to contribute to the board.
	Record bool
	// MaxDepth is the deepest depth the pool will race. The racers' solvers
	// and guidance buffers are sized ahead for it by unroll.GrowthDepth, the
	// rule scratch solvers grow by; at a depth past it they grow as they
	// go.
	MaxDepth int
	// Race runs each depth's race; nil selects portfolio.RaceLive (the
	// in-process goroutine pool). engine.LocalExecutor injects itself
	// here so the Executor seam covers warm races too.
	Race RaceFunc
	// Metrics, when non-nil, receives the pool's instrumentation: each
	// racer's solver counters (via sat.Options.Metrics), the frames each
	// racer loaded, and per-racer warm/cold conflict attribution.
	// Query labels every series ("bmc", "base", "step"; empty means the
	// query label is omitted).
	Metrics *obs.Registry
	Query   string
}

// racerState is one persistent racer: a named strategy, its live solver
// with its load state, and the cross-depth bookkeeping the pool keeps per
// racer.
type racerState struct {
	name     string
	strategy core.Strategy
	// feed is the solver and how far it is loaded. The
	// solver is made, with opts, when the racer first loads: until then
	// feed.Solver is nil and the racer holds no solver storage. Its
	// recorder is the racer's own cross-depth CDG (recorders are
	// per-goroutine state and must never be shared between racers); nil
	// unless Config.Record.
	feed Feed
	opts sat.Options
	// guidance is the array the racer's guidance is written over at every
	// depth, from the first, which its solver holds between depths once it
	// has loaded; nil for a strategy without guidance.
	guidance []float64
	// obs handles (nil when Config.Metrics is off). Warm/cold split the
	// racer's conflicts by whether its solver carried state from earlier
	// depths into the solve.
	mWarmConflicts *obs.Counter
	mColdConflicts *obs.Counter
	mWins          *obs.Counter
}

// Pool owns the racers for one BMC run: it manages their lifecycle
// (create once and empty, race every depth, load on demand) and the shared
// score board. A Pool is not goroutine-safe — the
// depth loop drives it sequentially, and concurrency happens only inside
// RaceDepth's portfolio.RaceLive call.
type Pool struct {
	src    Source
	cfg    Config
	racers []*racerState
	// origin is the source's sequence, stamped on every attempt; nil for a
	// source other than DeltaSource and StepSource.
	origin *portfolio.Origin

	// sizedFor is the depth the racers' storage was last sized for (-1
	// before the first), hint that depth's Source.Size.
	sizedFor int
	hint     portfolio.Growth
}

// NewPool builds one racer per strategy, whose persistent solver is made
// when it first loads; frames are pulled from the given query sequence
// (DeltaSource for BMC / induction base cases, StepSource for induction
// step cases) by the racers that load them, and re-pulled for a racer that
// starts late: Source.Frame must be a pure function of k, callable from
// several goroutines at once. The attempts of a pool over DeltaSource or
// StepSource carry their sequence's portfolio.Origin, so an executor can
// race them on solvers that unroll the circuit themselves.
func NewPool(src Source, cfg Config) *Pool {
	if cfg.Race == nil {
		cfg.Race = func(_ string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
			return portfolio.RaceLive(attempts, assumps, jobs, stop)
		}
	}
	p := &Pool{src: src, cfg: cfg, origin: originOf(src), sizedFor: -1}
	for _, st := range cfg.Strategies {
		r := &racerState{name: st.String(), strategy: st, opts: cfg.Opts}
		if cfg.Record {
			r.feed.Rec = core.NewRecorderWith(0, core.WithLeaves)
			r.opts.Recorder = r.feed.Rec
		}
		if cfg.Metrics != nil {
			r.opts.Metrics = sat.NewMetrics(cfg.Metrics, p.labels("strategy", r.name)...)
			r.feed.Loaded = cfg.Metrics.Counter(p.name(metricRacerLoaded, "strategy", r.name))
			r.mWarmConflicts = cfg.Metrics.Counter(p.name(metricRacerConflicts, "strategy", r.name, "state", "warm"))
			r.mColdConflicts = cfg.Metrics.Counter(p.name(metricRacerConflicts, "strategy", r.name, "state", "cold"))
			r.mWins = cfg.Metrics.Counter(p.name(metricRacerWins, "strategy", r.name))
		}
		p.racers = append(p.racers, r)
	}
	return p
}

// grow applies the growth rule both lifetimes share, unroll.GrowthDepth,
// when depth k outgrows what the racers were sized for: every solver is
// hinted for the depth it picks, and so is every solver made later. The
// hint is only recorded, so a racer that never loads allocates nothing.
func (p *Pool) grow(k int) {
	t := unroll.GrowthDepth(k, p.cfg.MaxDepth, func(t int) int {
		vars, clauses, literals := p.src.Size(t)
		return vars + clauses + literals
	})
	h := &p.hint
	h.Vars, h.Clauses, _ = p.src.Size(t)
	for _, r := range p.racers {
		if r.feed.Solver != nil {
			r.feed.Solver.Grow(h.Vars, h.Clauses)
		}
	}
	p.sizedFor = t
}

// catchUp is racer r's load at depth k, on the race goroutine about to
// solve: it makes r's solver if r has none yet, sized ahead as grow last
// hinted, and brings it to depth k under the depth's guidance — r's own
// array, which the solver then holds until the next depth writes over it.
func (p *Pool) catchUp(r *racerState, k int, frames *DepthFrames, guidance []float64, switchAfter int64) *sat.Solver {
	if r.feed.Solver == nil {
		s := new(sat.Solver)
		s.Grow(p.hint.Vars, p.hint.Clauses)
		s.Load(cnf.New(0), r.opts)
		r.feed.Solver = s
	}
	return r.feed.CatchUp(k, frames.Frame, guidance, switchAfter)
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

// DepthOutcome is what one RaceDepth call reports back to the depth loop:
// the race itself, the winner's core (UNSAT depths with recording) and the
// cumulative formula size.
type DepthOutcome struct {
	Race portfolio.RaceResult
	// CoreClauses/CoreVars/RecorderBytes describe the winner's extracted
	// unsat core (zero on SAT, undecided, or recording-off depths).
	CoreClauses   int
	CoreVars      int
	RecorderBytes int64
	// CoreOverlap is the Jaccard overlap of the core's variables with the
	// previous depth's (core.ScoreBoard.Overlap); nil at the first depth
	// and wherever this depth or the one before folded no core.
	CoreOverlap *float64
	// FrameVars is the variable count after this depth's frame;
	// TotalClauses/TotalLits the cumulative original-clause footprint, as
	// Source.Size counts it.
	FrameVars    int
	TotalClauses int
	TotalLits    int
	// EncodeWall is the time spent building this depth's frame, which the
	// first racer to load it does inside the race; zero when no racer here
	// loaded it (the race ran on a fleet). Loading the frame — and, for a
	// racer that starts late, encoding and loading every frame before it —
	// is part of the attempt's Wall and of Race.Wall.
	EncodeWall time.Duration
	// WinnerWarm reports that the winning racer had searched at earlier
	// depths (its solver carried learned clauses in).
	WinnerWarm bool
}

// RaceDepth runs one full depth: compute every strategy's guidance for the
// depth-k instance, race SolveAssuming(actₖ) over attempts that load their
// solver when a worker slot reaches them (the first to need the depth's
// frame encodes it) and fold the winner's core into the board. Depths must
// be raced in order starting at 0.
func (p *Pool) RaceDepth(k int) DepthOutcome { return p.RaceDepthStop(k, nil) }

// RaceDepthStop is RaceDepth with an external cancellation channel: when
// stop closes, the depth's race is abandoned cooperatively (Winner == -1
// unless a verdict landed first) and every racer's solver stays valid for
// the next depth, with what it learned in the cancelled race. The
// k-induction engine uses it to kill a step race whose base case has
// already decided the verdict.
func (p *Pool) RaceDepthStop(k int, stop <-chan struct{}) DepthOutcome {
	if k > p.sizedFor && k <= p.cfg.MaxDepth {
		p.grow(k)
	}
	// The depth's frame is encoded only if a racer here loads it, once, and
	// shared read-only by every racer that does.
	frames := NewDepthFrames(p.src, k)
	frameVars := p.src.NumVars(k)
	_, totalClauses, totalLits := p.src.Size(k)

	// Each racer's guidance is written over its one array, loaded or not:
	// the solver holding it is at rest until Feed.CatchUp hands it back, and
	// an executor is done with it when the race returns. An array that no
	// longer fits is replaced by one sized as the solvers are; vsids has none.
	in := layout(p.src, k)
	attempts := make([]portfolio.LiveAttempt, len(p.racers))
	warm := make([]bool, len(p.racers))
	for i, r := range p.racers {
		if r.strategy != core.OrderVSIDS && cap(r.guidance) < in.NumVars+1 {
			r.guidance = make([]float64, 0, max(p.hint.Vars, in.NumVars)+1)
		}
		opts := p.cfg.Opts
		opts.Guidance, opts.SwitchAfterDecisions = r.strategy.Guidance(p.cfg.Board, in, totalLits, p.cfg.Divisor, r.guidance)
		r.guidance = opts.Guidance
		attempts[i] = portfolio.LiveAttempt{Name: r.name, Opts: opts, Grow: p.hint, Origin: p.origin, K: k, Solver: func() *sat.Solver {
			return p.catchUp(r, k, frames, opts.Guidance, opts.SwitchAfterDecisions)
		}}
		warm[i] = r.feed.Solver != nil && r.feed.Solver.Stats().Conflicts > 0
	}

	out := DepthOutcome{
		Race:         p.cfg.Race(p.cfg.Query, attempts, []lits.Lit{p.src.Assumption(k)}, p.cfg.Jobs, stop),
		FrameVars:    frameVars,
		TotalClauses: totalClauses,
		TotalLits:    totalLits,
		// The race has joined: the frame's encode, if a racer here made it,
		// is timed.
		EncodeWall: frames.EncodeWall(),
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
		p.racers[w].mWins.Inc()
		if out.Race.Result.Status == sat.Unsat {
			out.FoldCore(p.racers[w].feed.Rec, p.cfg.Board, k, nil, frameVars, auxOf(p.src))
		}
	}
	// Clear every racer's final-conflict marker: losers that decided
	// Unsat after the winner (or the winner itself) must not leak this
	// depth's proof into the next one.
	for _, r := range p.racers {
		if r.feed.Rec != nil {
			r.feed.Rec.ResetFinal()
		}
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
// reports its size and its overlap with the previous depth's core, and
// folds its variables into the score board weighted by the 1-based
// instance number. The engine's freshSeq and the warm pool both end an
// UNSAT depth here; originals, nVars and aux are core.Recorder.CoreVarsOf's.
// A nil recorder, or one without a proof (the winner ran on a remote
// worker), folds nothing.
func (out *DepthOutcome) FoldCore(rec *core.Recorder, board *core.ScoreBoard, k int, originals *cnf.Formula, nVars int, aux func(lits.Var) bool) {
	if rec == nil || !rec.HasProof() {
		return
	}
	ids := rec.Core()
	vars := rec.CoreVarsOf(ids, originals, nVars, aux)
	out.CoreClauses = len(ids)
	out.CoreVars = len(vars)
	out.RecorderBytes = rec.ApproxBytes()
	if overlap, ok := board.Overlap(vars, k+1); ok {
		out.CoreOverlap = &overlap
	}
	board.Update(vars, k+1)
}

// layout is the depth-k instance of the source as core.Strategy.Guidance
// reads it.
func layout(src Source, k int) core.Layout {
	return core.Layout{NumVars: src.NumVars(k), Frames: src.Frames(k), VarInfo: src.VarInfo}
}

// ApplyStrategy applies core.Strategy.Guidance for the source's depth-k
// instance to a caller-owned live solver. Kept for benchmark/driver.go,
// which drives one solver by hand; the benchmark PR deletes it.
func ApplyStrategy(s *sat.Solver, st core.Strategy, board *core.ScoreBoard, src Source, k, totalLits, divisor int) {
	s.SetGuidance(st.Guidance(board, layout(src, k), totalLits, divisor, nil))
}

// CoreVars is core.Vars over a caller-kept ID-to-literals map, with the
// source's auxiliary variables excluded. Kept for benchmark/driver.go,
// which keeps such a map beside its recorder; the benchmark PR deletes it.
func CoreVars(src Source, coreIDs []sat.ClauseID, clausesByID map[sat.ClauseID]cnf.Clause, nVars int) []lits.Var {
	return core.Vars(len(coreIDs), func(i int) []lits.Lit { return clausesByID[coreIDs[i]] }, nVars, auxOf(src))
}
