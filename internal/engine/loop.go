package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// The depth loop — the paper's Fig. 5 (refine_order_bmc) with the three
// things a configuration can vary factored out of it:
//
//   - the instance sequence: BMC checks one (counter-examples of length
//     exactly k); k-induction checks two, the same base sequence plus the
//     simple-path step sequence, and stops a step race whose base verdict
//     made it moot;
//   - the solver lifetime: fresh solvers over each depth's whole formula
//     (freshSeq; the formula grown, the solvers reloaded, in place) or
//     persistent solvers fed each depth's delta (warmSeq);
//   - the attempt set: the portfolio's strategy set, or the one-element
//     set of a single ordering — a single ordering is a portfolio of one.
//
// Every race of every shape goes through the Executor.

// sequence is one query's instance sequence under one solver lifetime.
type sequence interface {
	// raceDepth encodes the depth-k instance (or its delta frame),
	// configures one attempt per strategy, races them through the
	// Executor until a verdict lands or stop closes, and folds the
	// winner's unsat core into the sequence's score board. Depths are
	// raced in order from 0.
	raceDepth(k int, stop <-chan struct{}) racer.DepthOutcome
	// trace turns a model of the depth-k instance into a counter-example.
	trace(model lits.Assignment, k int) *unroll.Trace
}

// freshSeq races fresh solvers over each depth's whole formula
// (Executor.Race) — the paper's Fig. 5 loop, gen_cnf_formula and a new
// solver per k — and pays for a depth what is new at it: the instance
// grows in place by the depth's frame, and each strategy's solver is loaded
// into the storage its last depth left behind (sat.Solver.Load), coming out
// exactly the solver sat.New would build; its recorder is reloaded the same
// way. Only the score board's contents survive a depth; formula, solvers and
// recorders are rewritten by the next one, which they may be because every
// Executor is done with them when Race returns.
//
// What a depth outgrows — the instance's clause list, each solver's tables,
// each guidance buffer — is sized ahead for a depth up to the check's
// MaxDepth by the rule the persistent lifetime shares (grow).
type freshSeq struct {
	plan
	exec  Executor
	query Query
	// origin names the sequence on every attempt, for an executor that
	// builds the instance where it races it.
	origin *portfolio.Origin
	u      *unroll.Unroller
	inst   *unroll.Instance // the query's instance, at the last depth raced
	// solvers, recs and guidance are per strategy and live as long as the
	// check: each depth loads the solver, reloads its recorder
	// (core.Recorder.Reload) and writes the guidance over what the last
	// depth left.
	solvers  []*sat.Solver
	recs     []*core.Recorder // nil entries unless record
	guidance [][]float64
	jobs     int
	metrics  []*sat.Metrics // per strategy, nil without a registry
	board    *core.ScoreBoard

	// maxDepth is the check's last depth. sizedFor is the depth the
	// storage was last sized for (-1 before the first), sizedVars that
	// depth's variable count.
	maxDepth            int
	sizedFor, sizedVars int
}

// grow applies the growth rule both lifetimes share, unroll.GrowthDepth,
// when depth k outgrows what the storage was sized for: the clause list
// and every strategy's solver tables are hinted for the depth it picks. The
// hints are only recorded: a solver that never loads (a skipped attempt, a
// race won remotely) allocates nothing.
func (q *freshSeq) grow(k int) {
	t := unroll.GrowthDepth(k, q.maxDepth, func(t int) int {
		vars, clauses, literals := q.inst.Size(t)
		return vars + clauses + literals
	})
	vars, clauses, _ := q.inst.Size(t)
	q.inst.Grow(t)
	for _, s := range q.solvers {
		s.Grow(vars, clauses)
	}
	q.sizedFor, q.sizedVars = t, vars
}

func (q *freshSeq) raceDepth(k int, stop <-chan struct{}) racer.DepthOutcome {
	if k > q.sizedFor {
		q.grow(k)
	}
	encodeStart := time.Now()
	f := q.inst.Extend(k)
	encodeWall := time.Since(encodeStart)

	in := core.Layout{NumVars: f.NumVars, Frames: q.inst.Frames(), VarInfo: q.inst.VarInfo}
	attempts := make([]portfolio.Attempt, len(q.set))
	for i, st := range q.set {
		so := q.opts
		so.Metrics = q.metrics[i]
		// A strategy without guidance keeps a nil buffer; one with guidance
		// gets its first exactly, and every later one sized by grow.
		if g := q.guidance[i]; g != nil && cap(g) < f.NumVars+1 {
			q.guidance[i] = nil
			q.guidance[i] = make([]float64, 0, q.sizedVars+1)
		}
		so.Guidance, so.SwitchAfterDecisions = st.Guidance(q.board, in, f.NumLiterals(), q.divisor, q.guidance[i])
		q.guidance[i] = so.Guidance
		if q.record {
			q.recs[i].Reload(f.NumClauses())
			so.Recorder = q.recs[i]
		}
		attempts[i] = portfolio.Attempt{Name: st.String(), Opts: so, Solver: q.solvers[i], Origin: q.origin, K: k}
	}

	out := racer.DepthOutcome{
		Race:         q.exec.Race(q.query, f, attempts, q.jobs, stop),
		FrameVars:    f.NumVars,
		TotalClauses: f.NumClauses(),
		TotalLits:    f.NumLiterals(),
		EncodeWall:   encodeWall,
	}

	// Scratch numbering has no auxiliary variables to keep out of a core.
	if w := out.Race.Winner; w >= 0 && out.Race.Result.Status == sat.Unsat {
		out.FoldCore(q.recs[w], q.board, k, f, f.NumVars, nil)
	}
	return out
}

func (q *freshSeq) trace(model lits.Assignment, k int) *unroll.Trace {
	return q.u.ExtractTrace(model, k)
}

// warmSeq keeps one persistent solver per strategy alive across the whole
// check (racer.Pool, raced through Executor.RaceLive): each depth builds
// only the new frame's clauses, a solver takes the frames it is missing
// when it is about to search and solves under the depth's activation
// literal, so learned clauses and VSIDS scores compound.
type warmSeq struct {
	pool *racer.Pool
	// d decodes models; nil on the step sequence, whose models are
	// induction counter-witnesses, never traces.
	d *unroll.Delta
}

func (w warmSeq) raceDepth(k int, stop <-chan struct{}) racer.DepthOutcome {
	return w.pool.RaceDepthStop(k, stop)
}

func (w warmSeq) trace(model lits.Assignment, k int) *unroll.Trace {
	return w.d.ExtractTrace(model, k)
}

// plan is the session resolved for one check: what both solver lifetimes
// take from the configuration, derived once so that fresh and persistent
// solvers cannot read it differently.
type plan struct {
	set portfolio.StrategySet
	// opts is what every attempt starts from: the per-instance conflict
	// budget and the context's deadline. The races
	// install their own Stop; the sequences add guidance, switch threshold,
	// recorder and metrics.
	opts sat.Options
	// divisor is the dynamic switch divisor: the configured one, or the
	// paper's core.SwitchDivisor when that is 0.
	divisor int
	// record attaches a proof recorder to every attempt, so whichever
	// racer wins an UNSAT depth has a core to contribute. Recording (and
	// the board it feeds) only pays off when some attempt reads bmc_score
	// at the next depth — static or dynamic is raced — or when forced.
	record bool
}

// resolve is the one place a check's plan is derived from the
// configuration and ctx.
func (s *Session) resolve(ctx context.Context) plan {
	p := plan{
		set:     portfolio.StrategySet{s.cfg.Ordering},
		divisor: s.cfg.SwitchDivisor,
		record:  s.cfg.ForceRecording,
	}
	if s.cfg.Portfolio {
		p.set = s.cfg.Strategies
		if len(p.set) == 0 {
			p.set = portfolio.DefaultSet()
		}
	}
	p.opts.MaxConflicts = s.cfg.PerInstanceConflicts
	if dl, ok := ctx.Deadline(); ok {
		p.opts.Deadline = dl
	}
	if p.divisor == 0 {
		p.divisor = core.SwitchDivisor
	}
	for _, st := range p.set {
		if st == core.OrderStatic || st == core.OrderDynamic {
			p.record = true
		}
	}
	return p
}

// newSequence builds the query's sequence under the session's solver
// lifetime. Every sequence — bmc, base, step — gets the same plan and a
// score board of its own.
func (s *Session) newSequence(u *unroll.Unroller, query Query, p plan) sequence {
	board := core.NewScoreBoard(s.cfg.ScoreMode)
	if s.cfg.Incremental {
		cfg := s.poolConfig(query, p, board)
		if query == QueryStep {
			sd := u.StepDelta()
			sd.SetMetrics(s.unrollMetrics(query))
			return warmSeq{pool: racer.NewPool(racer.StepSource(sd), cfg)}
		}
		d := u.Delta()
		d.SetMetrics(s.unrollMetrics(query))
		return warmSeq{pool: racer.NewPool(racer.DeltaSource(d), cfg), d: d}
	}
	inst := u.Instance()
	if query == QueryStep {
		inst = u.StepInstance()
	}
	n := len(p.set)
	q := &freshSeq{
		plan:     p,
		exec:     s.executor(),
		query:    query,
		origin:   &portfolio.Origin{Unroller: u, Step: query == QueryStep},
		u:        u,
		inst:     inst,
		solvers:  make([]*sat.Solver, n),
		recs:     make([]*core.Recorder, n),
		guidance: make([][]float64, n),
		jobs:     s.cfg.Jobs,
		metrics:  make([]*sat.Metrics, n),
		board:    board,
		maxDepth: s.cfg.MaxDepth,
		sizedFor: -1,
	}
	for i, st := range p.set {
		q.solvers[i] = new(sat.Solver)
		q.metrics[i] = s.solverMetrics(query, st.String())
		if p.record {
			q.recs[i] = core.NewRecorder(0)
		}
	}
	return q
}

// poolConfig hands the plan and the sequence's board to a warm racer pool,
// routing races through the Executor seam. query labels them for the
// executor.
func (s *Session) poolConfig(query Query, p plan, board *core.ScoreBoard) racer.Config {
	exec := s.executor()
	return racer.Config{
		Strategies: p.set,
		Jobs:       s.cfg.Jobs,
		Opts:       p.opts,
		Board:      board,
		Divisor:    p.divisor,
		Record:     p.record,
		MaxDepth:   s.cfg.MaxDepth,
		Race: func(q string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
			return exec.RaceLive(Query(q), attempts, assumps, jobs, stop)
		},
		Metrics: s.cfg.Metrics,
		Query:   string(query),
	}
}

// lane is one query's side of the depth loop: its sequence and where its
// outputs land in the Result.
type lane struct {
	query Query
	seq   sequence
	// stats accumulates the lane's per-depth solver statistics:
	// Result.Total, BaseStats or StepStats.
	stats *sat.Stats
	// tel is the lane's race telemetry; nil on shapes that report none.
	tel *portfolio.Telemetry
}

// depthRun is one lane's pass through one depth.
type depthRun struct {
	*lane
	k     int
	start time.Time
	span  *obs.Span
	out   racer.DepthOutcome
	// aborted marks a step race cancelled because the base verdict made
	// it moot: it carries no win/loss signal.
	aborted bool
}

// status is the single verdict classifier: a race decides its depth only
// through a winner holding Sat or Unsat. Everything else — no winner, or
// an executor's nominal winner with an undecided status — is Unknown.
func (r *depthRun) status() sat.Status {
	if race := &r.out.Race; race.Winner >= 0 && race.Result.Status.Decided() {
		return race.Result.Status
	}
	return sat.Unknown
}

// run is the depth loop. BMC walks one lane; k-induction walks base and
// step, side by side on the racing shapes and base-then-step otherwise.
// The verdict logic is the same everywhere: Falsified needs a SAT base,
// Proved needs the step UNSAT at a k whose base cases are all clean, and
// an undecided depth ends the check as Unknown.
func (s *Session) run(ctx context.Context, u *unroll.Unroller) (*Result, error) {
	p := s.resolve(ctx)
	// racing is the one predicate behind everything a shape reports as a
	// race — telemetry, the strategy echo, per-depth winners, RaceFinished
	// events — and behind running the k-induction queries side by side:
	// the portfolio shapes and incremental k-induction.
	racing := s.cfg.Portfolio || (s.cfg.Kind == KInduction && s.cfg.Incremental)

	res := &Result{Verdict: Unknown, K: -1}
	newLane := func(query Query, stats *sat.Stats) *lane {
		l := &lane{query: query, seq: s.newSequence(u, query, p), stats: stats}
		if racing {
			l.tel = portfolio.NewTelemetry()
			l.tel.SetMetrics(s.cfg.Metrics, string(query))
		}
		return l
	}
	var base, step *lane
	if s.cfg.Kind == KInduction {
		base, step = newLane(QueryBase, &res.BaseStats), newLane(QueryStep, &res.StepStats)
		res.BaseTelemetry, res.StepTelemetry = base.tel, step.tel
	} else {
		base = newLane(QueryBMC, &res.Total)
		res.Telemetry = base.tel
	}
	if racing {
		res.Strategies, res.Jobs, res.Warm = p.set.Names(), s.cfg.Jobs, s.cfg.Incremental
	}

	for k := 0; k <= s.cfg.MaxDepth; k++ {
		if ctx.Err() != nil {
			// The budget expired before depth k was attempted. BMC reports
			// the first unfinished depth; k-induction keeps the last depth
			// whose queries ran.
			if step == nil {
				res.K = k
			}
			return res, nil
		}
		res.K = k

		b := s.startDepth(base, k)
		var st *depthRun
		if step != nil && racing {
			st = s.startDepth(step, k)
			raceBoth(ctx, b, st)
			s.finishDepths(res, b, st)
		} else {
			b.out = base.seq.raceDepth(k, ctx.Done())
			s.finishDepths(res, b)
		}

		switch b.status() {
		case sat.Sat:
			res.Verdict = Falsified
			res.Trace = base.seq.trace(b.out.Race.Result.Model, k)
			if !u.Replay(res.Trace) {
				return nil, fmt.Errorf("engine: depth-%d counter-example (%s) failed replay on %s",
					k, b.out.Race.WinnerName(), s.circ.Name())
			}
			return res, nil
		case sat.Unsat:
			// No counter-example of length k.
		default:
			return res, nil
		}
		if step == nil {
			continue
		}

		// Step case: P-states s_0..s_k, pairwise distinct, with a
		// transition into ¬P at s_{k+1}. UNSAT closes the proof.
		if st == nil {
			st = s.startDepth(step, k)
			st.out = step.seq.raceDepth(k, ctx.Done())
			s.finishDepths(res, st)
		}
		switch st.status() {
		case sat.Unsat:
			res.Verdict = Proved
			return res, nil
		case sat.Sat:
			// Not k-inductive yet: go deeper.
		default:
			return res, nil
		}
	}
	if step == nil {
		res.Verdict = Holds
	}
	return res, nil
}

// startDepth opens a lane's depth: the DepthStarted event and the span.
func (s *Session) startDepth(l *lane, k int) *depthRun {
	s.emit(Event{Kind: DepthStarted, Query: l.query, K: k})
	return &depthRun{lane: l, k: k, start: time.Now(), span: s.beginDepth(l.query, k)}
}

// raceBoth races one depth's base and step queries side by side. A base
// verdict that makes the step moot — SAT falsifies outright, undecided
// ends the attempt — cancels the step race so it stops burning cores on
// a moot question (a warm step pool keeps the conflicts: its solvers
// survive cancellation). Cancelling ctx stops both.
func raceBoth(ctx context.Context, b, st *depthRun) {
	stepCtx, cancelStep := context.WithCancel(ctx)
	defer cancelStep()
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.out = st.seq.raceDepth(st.k, stepCtx.Done())
	}()
	b.out = b.seq.raceDepth(b.k, ctx.Done())
	if b.status() != sat.Unsat {
		st.aborted = true
		cancelStep()
	}
	<-done
}

// finishDepths closes the depth's joined runs (one query, or base and
// step) in the event order consumers rely on: every RaceFinished, then
// every DepthFinished.
func (s *Session) finishDepths(res *Result, runs ...*depthRun) {
	for _, r := range runs {
		if r.tel == nil {
			continue
		}
		race := &r.out.Race
		if r.aborted {
			// A deliberately cancelled race is no evidence about any
			// strategy — folding it into Observe would count every racer
			// as a loser.
			r.tel.ObserveAborted(r.k, race)
		} else {
			r.tel.Observe(r.k, race)
			if r.out.WinnerWarm {
				r.tel.WarmWins++
			}
		}
		s.observeRace(r.query, r.k, race)
	}
	for _, r := range runs {
		race := &r.out.Race
		ds := DepthStats{
			K:              r.k,
			Status:         sat.Unknown,
			EncodeWall:     r.out.EncodeWall,
			SolveWall:      race.Wall,
			FormulaVars:    r.out.FrameVars,
			FormulaClauses: r.out.TotalClauses,
			FormulaLits:    r.out.TotalLits,
			CoreClauses:    r.out.CoreClauses,
			CoreVars:       r.out.CoreVars,
			RecorderBytes:  r.out.RecorderBytes,
			CoreOverlap:    r.out.CoreOverlap,
		}
		switch {
		case race.Winner >= 0:
			ds.Status, ds.Stats = race.Result.Status, race.Result.Stats
		case r.tel == nil && len(race.Outcomes) == 1:
			// A single-ordering run reports its one solver's effort even
			// when the budget ran out first; races count winners only.
			ds.Status, ds.Stats = race.Outcomes[0].Status, race.Outcomes[0].Stats
		}
		if r.tel != nil {
			ds.Winner = race.WinnerName()
		}
		ds.Wall = time.Since(r.start)
		s.finishDepth(r.span, r.query, &ds)
		r.stats.Add(ds.Stats)
		if r.query == QueryBMC {
			res.PerDepth = append(res.PerDepth, ds)
		}
	}
}
