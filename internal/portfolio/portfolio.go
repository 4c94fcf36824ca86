// Package portfolio implements the concurrent strategy-racing engine: for
// one CNF instance, it runs several independently configured SAT solvers
// (one per ordering strategy) in parallel, keeps the first Sat/Unsat
// verdict, and cancels the rest through the solver's cooperative Stop
// channel.
//
// The paper's Table 1 shows that no single decision ordering (vsids,
// static, dynamic, timeaxis) dominates across benchmarks; racing them
// buys min-of-strategies latency at the price of extra cores. The BMC
// depth loop that feeds races and folds the winner's unsat core back into
// the shared core.ScoreBoard lives in internal/engine (loop.go); this
// package is instance-level and strategy-agnostic — it races whatever
// solver configurations it is handed.
//
// Races come in two flavours. Race loads one solver per attempt from a
// formula — the cold portfolio, where every depth starts from scratch (in
// a new solver, or loaded into the storage of one the caller keeps) and a
// cancelled loser's learned clauses die with it (reported as
// WastedConflicts). RaceLive instead races caller-owned persistent solvers
// on an assumption list: the warm pool (internal/racer) keeps one
// incremental solver per strategy alive across all BMC depths, races them
// through RaceLive at each depth, so each racer's conflicts — the
// cancelled losers' too — stay in its solver as the next depth's
// warm-start capital. A live
// attempt does not hand over a solver but a function that produces it,
// loaded up to the depth being raced; RaceLive calls it in the attempt's
// worker slot, so an attempt that is skipped, or that an executor runs
// somewhere else, never loads anything here.
//
// Telemetry records both regimes: wins, cancelled and skipped runs, and
// conflicts per strategy always, and warm-vs-cold win attribution for the
// warm pool.
package portfolio

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// Attempt is one racer: a label (usually the strategy name), fully
// configured solver options, and optionally the solver to run them in. The
// race overrides Opts.Stop to wire in its own cancellation; every other
// field — guidance, recorder, budgets — is the caller's. Recorders must not
// be shared between attempts: each solver calls its recorder from its own
// goroutine.
type Attempt struct {
	Name string
	Opts sat.Options
	// Solver is the solver the race loads the formula into
	// (sat.Solver.Load): it comes out of the load exactly the solver
	// sat.New would have built, in the storage its last use left behind. A
	// caller racing a sequence of growing instances keeps one per attempt
	// and pays for each table once instead of once per instance. The solver
	// is the race's from the call to its return and must not be shared
	// between attempts; whatever state it is in — searched, cancelled
	// mid-search, never loaded — does not matter. Nil means a new solver.
	Solver *sat.Solver
	// Origin and K name the formula: the depth-K instance of the query
	// sequence Origin unrolls. An executor that runs the attempt in another
	// process ships them instead of the formula; nil runs it in process.
	Origin *Origin
	K      int
}

// Origin is the query sequence a race's clauses unroll: the circuit and
// property of Unroller, and which of its queries — the BMC one (also the
// k-induction base case) or the k-induction step. The engine makes one per
// sequence and stamps it, with the depth, on every attempt it races, so an
// executor that runs attempts elsewhere ships the circuit once and the
// other end unrolls it itself; the pointer identifies the sequence.
type Origin struct {
	Unroller *unroll.Unroller
	Step     bool
}

// AttemptOutcome is the per-racer telemetry of one race.
type AttemptOutcome struct {
	Name   string
	Status sat.Status
	Stats  sat.Stats
	Wall   time.Duration
	// Wait is how long the attempt sat in the work queue before a worker
	// slot picked it up (zero for attempts that start immediately). Start
	// of solving is therefore RaceResult.Start + Wait, which is how the
	// tracer reconstructs per-racer spans after the race joins.
	Wait time.Duration
	// Canceled marks racers that were stopped because another attempt won
	// (their Status is Interrupted).
	Canceled bool
	// Skipped marks attempts that never started: the race was decided (or
	// externally stopped) before a worker slot reached them.
	Skipped bool
}

// RaceResult is the outcome of racing all attempts on one instance.
type RaceResult struct {
	// Winner is the index into the attempts slice of the racer whose
	// verdict was kept, or -1 when no attempt reached Sat/Unsat (all
	// budgets exhausted, externally stopped, or an empty attempt list).
	Winner int
	// Result is the winner's solver result; zero-valued when Winner < 0.
	Result sat.Result
	// Outcomes has one entry per attempt, in input order.
	Outcomes []AttemptOutcome
	// Start is when the race began; Wall the wall-clock time of the whole
	// race.
	Start time.Time
	Wall  time.Duration
}

// WinnerName returns the winning attempt's label, or "" when no attempt won.
func (r *RaceResult) WinnerName() string {
	if r.Winner < 0 {
		return ""
	}
	return r.Outcomes[r.Winner].Name
}

// LoserConflicts sums the conflicts spent by every non-winning attempt —
// the "wasted" parallel work a portfolio pays for its latency win.
func (r *RaceResult) LoserConflicts() int64 {
	var n int64
	for i, o := range r.Outcomes {
		if i != r.Winner {
			n += o.Stats.Conflicts
		}
	}
	return n
}

// Race solves formula f with every attempt concurrently, at most jobs
// solvers at a time (jobs <= 0 means one per attempt), and returns as
// soon as every started attempt has come to rest. The first attempt to
// reach a Sat/Unsat verdict wins; all others are cancelled immediately
// and attempts still waiting for a worker slot are skipped.
//
// jobs deliberately is not clamped to GOMAXPROCS: with fewer cores than
// racers the Go scheduler time-slices them, which preserves the
// min-of-strategies property (paying a constant-factor slowdown) —
// whereas a GOMAXPROCS clamp would silently turn the race into "first
// strategy only". Use jobs to bound oversubscription for large sets.
//
// stop, when non-nil, cancels the whole race from outside (deadline or
// caller shutdown); the race then reports Winner == -1 unless a verdict
// landed first. The formula is shared read-only, and only until Race
// returns: each attempt's load (sat.Solver.Load, in the attempt's worker
// slot, into Attempt.Solver or a new solver) copies the clauses into
// per-solver storage and the search never looks at f again, every worker
// has joined by the time Race returns, and a skipped attempt never loads at
// all — so the caller may rewrite f, and reuse the solvers, for its next
// race.
func Race(f *cnf.Formula, attempts []Attempt, jobs int, stop <-chan struct{}) RaceResult {
	names := make([]string, len(attempts))
	for i := range attempts {
		names[i] = attempts[i].Name
	}
	return runRace(names, jobs, stop, func(idx int, cancel <-chan struct{}) sat.Result {
		opts := attempts[idx].Opts
		opts.Stop = cancel
		s := attempts[idx].Solver
		if s == nil {
			s = new(sat.Solver)
		}
		s.Load(f, opts)
		return s.Solve()
	})
}

// LiveAttempt is one racer in a live-solver race. The solver behind it is
// persistent — its clause database and heuristic state survive the race —
// but it is handed over as a function, not a value: being loaded is a
// consequence of being about to search. The warm pool (internal/racer)
// builds one attempt per strategy per depth.
type LiveAttempt struct {
	Name string
	// Opts is what the attempt's solver runs under at this depth: tuning
	// parameters, budgets, deadline, and the depth's guidance and switch
	// threshold, with the process-local hooks (Stop, Recorder, Metrics)
	// left out. It is plain data — what an executor that runs the attempt
	// in another process puts on the wire.
	Opts sat.Options
	// Solver returns the attempt's solver holding every clause of the
	// depth being raced, Opts' guidance applied. The solver is
	// single-threaded and the call may do the whole load: call it at most
	// once per race, from the goroutine that then solves.
	Solver func() *sat.Solver
	// Grow is the size the caller's solver storage is sized ahead for at
	// this depth (sat.Solver.Grow). An executor that keeps solvers of its
	// own for the attempt sizes them by it, so they grow as the caller's do.
	Grow Growth
	// Origin and K name what Solver holds: frames 0..K of the sequence
	// Origin unrolls. An executor that keeps solvers elsewhere loads them
	// from its own unrolling of Origin; nil runs the attempt in process.
	Origin *Origin
	K      int
}

// Growth is a persistent solver's storage hint, as sat.Solver.Grow takes
// it: the variables and clauses to size its tables for.
type Growth struct {
	Vars, Clauses int
}

// RaceLive is the live-solver counterpart of Race: it runs
// SolveAssuming(assumps) on every attempt's solver concurrently, keeps
// the first Sat/Unsat verdict, and cancels the rest cooperatively.
// Nothing is torn down — each racing solver gets a fresh cancellation
// channel installed (sat.Solver.SetStop) and keeps its learned clauses
// and scores afterwards, so a cancelled loser resumes from exactly this
// state at the next race instead of burning its conflicts.
// An attempt's Solver function runs in its worker slot, after the slot
// has seen that the race is still open and right before SolveAssuming:
// attempts load side by side, the load counts toward the attempt's Wall,
// and a skipped attempt (race decided before a slot reached it) is never
// asked for its solver at all.
//
// Every solver must be exclusive to the race while it runs (a solver is
// single-threaded, and RaceLive touches each one from one worker only).
// The jobs and stop semantics are those of Race.
func RaceLive(attempts []LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) RaceResult {
	names := make([]string, len(attempts))
	for i := range attempts {
		names[i] = attempts[i].Name
	}
	return runRace(names, jobs, stop, func(idx int, cancel <-chan struct{}) sat.Result {
		s := attempts[idx].Solver()
		s.SetStop(cancel)
		return s.SolveAssuming(assumps)
	})
}

// runRace is the shared race harness behind Race and RaceLive: a worker
// pool over attempt indices, first-verdict-wins cancellation, per-attempt
// outcome bookkeeping. solveOne runs attempt idx to rest, polling cancel.
func runRace(names []string, jobs int, stop <-chan struct{}, solveOne func(idx int, cancel <-chan struct{}) sat.Result) RaceResult {
	start := time.Now()
	res := RaceResult{Winner: -1, Start: start, Outcomes: make([]AttemptOutcome, len(names))}
	for i := range names {
		res.Outcomes[i] = AttemptOutcome{Name: names[i], Skipped: true}
	}
	if len(names) == 0 {
		res.Wall = time.Since(start)
		return res
	}
	if jobs <= 0 || jobs > len(names) {
		jobs = len(names)
	}

	// cancel is closed exactly once — by the first verdict or by the
	// external stop — and is what every racing solver polls.
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	doCancel := func() { cancelOnce.Do(func() { close(cancel) }) }

	// Forward the external stop to the racers. raceDone unblocks the
	// forwarder when the race ends on its own.
	raceDone := make(chan struct{})
	if stop != nil {
		go func() {
			select {
			case <-stop:
				doCancel()
			case <-raceDone:
			}
		}()
	}

	winner := int32(-1)
	var winnerResult sat.Result
	var mu sync.Mutex // guards winnerResult

	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for idx := range work {
				// A decided (or externally stopped) race skips the
				// remaining queue instead of launching doomed solvers.
				select {
				case <-cancel:
					continue
				default:
				}
				t0 := time.Now()
				r := solveOne(idx, cancel)
				wall := time.Since(t0)

				o := &res.Outcomes[idx]
				o.Skipped = false
				o.Status = r.Status
				o.Stats = r.Stats
				o.Wall = wall
				o.Wait = t0.Sub(start)
				if r.Status.Decided() && atomic.CompareAndSwapInt32(&winner, -1, int32(idx)) {
					mu.Lock()
					winnerResult = r
					mu.Unlock()
					doCancel()
				}
			}
		}()
	}
	for i := range names {
		work <- i
	}
	close(work)
	wg.Wait()
	close(raceDone)

	if wi := atomic.LoadInt32(&winner); wi >= 0 {
		res.Winner = int(wi)
		res.Result = winnerResult
		// Losers that ran but did not decide were cancelled by the win.
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			if i != res.Winner && !o.Skipped && !o.Status.Decided() {
				o.Canceled = true
			}
		}
	}
	res.Wall = time.Since(start)
	return res
}
