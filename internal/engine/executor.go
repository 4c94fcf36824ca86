package engine

import (
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/portfolio"
)

// Executor is the session's execution seam: every race a Session runs —
// cold (fresh solvers over one formula) or live (the warm pool's
// persistent solvers under an assumption) — is submitted through this
// interface, and every depth-boundary clause-bus payload flows through
// its hook. LocalExecutor wraps the in-process goroutine pool;
// remote.Executor (internal/remote) fans the same calls out across a
// fleet of bmcworker daemons over TCP. Both are installed through
// WithExecutor and observed through the same session API, so the depth
// loop never knows where its solvers actually run.
//
// # The contract, method by method
//
// Race runs a cold race: one fresh solver per attempt, all solving the
// same formula f, at most jobs concurrently (jobs <= 0 means one per
// attempt). The attempts' sat.Options carry everything a solver needs
// (guidance, budgets, deadline, recorder); f and the options are owned
// by the caller and must not be mutated. An attempt may name the solver
// to load f into (portfolio.Attempt.Solver): an executor that runs the
// attempt in-process hands it to portfolio.Race, one that runs it
// elsewhere ignores it. query labels which instance sequence the race
// belongs to (bmc, base, step) — pure routing/telemetry context, it
// does not change the formula.
//
// Race borrows f, the options' guidance slices and the attempts' solvers
// only until it returns: the depth loop grows the same formula in place,
// overwrites the same guidance and reloads the same solvers for the next
// depth. Whatever reads them — a racing solver's load, a wire encoder —
// must have finished by then, on every path including a lost worker's;
// nothing an implementation keeps past the call (results, telemetry,
// retained payloads) may alias them.
//
// RaceLive races the warm pool's persistent solvers on an assumption
// list; their clause databases and heuristic state survive the race (the
// warm pool's per-depth race). An attempt does not carry a solver but the
// means to get one: Opts is what it runs under at this depth — tuning,
// budgets, deadline, the depth's guidance, no process-local hooks — and
// Solver returns the caller's solver for it, loaded with every frame up
// to this depth on the calling goroutine. An executor that runs an
// attempt in-process calls Solver from the goroutine that then solves,
// at most once per race and not at all for an attempt it skips
// (portfolio.RaceLive does exactly this); an executor that runs it
// elsewhere ships Opts and never calls Solver, so the caller's solver
// stays unloaded and costs nothing until a fallback needs it; Grow is the
// size the caller's solvers are hinted for, by which such an executor sizes
// the solvers it keeps instead. Opts' guidance is borrowed as Race borrows
// it: the pool writes the next depth's over the same array. The solvers
// are single-threaded: the executor may drive each one from at most one
// goroutine at a time, and when the call returns every solver it asked
// for must be at rest — the caller immediately runs depth-boundary work
// (clause exchange, core folding) on them. Outcomes are indexed exactly
// like the attempts slice either way, and clauses learned on solvers the
// caller does not own travel back in RaceResult.Foreign.
//
// Both race methods block until the race is settled. They return the
// first Sat/Unsat verdict in RaceResult.Result with Winner set to the
// deciding attempt's index, or Winner == -1 when no attempt reached a
// verdict (budgets exhausted, or stop closed first). When stop closes,
// the implementation must cancel outstanding attempts cooperatively and
// return promptly — bounded by the solvers' stop-poll interval (and by a
// solver load already in progress, which is not interrupted), not by
// the remaining search — with every attempt at rest. Closing stop is
// the caller's only cancellation channel; implementations must never
// require a second call to unwind a race.
//
// OnClausePayload observes one racer's exported clause-bus payload at a
// depth boundary: query names the instance sequence, k the depth, from
// the exporting strategy. The pool redistributes the payload locally
// itself; the hook exists so a distributing executor can
// forward it to its workers (the clauses are plain literal slices — the
// designed wire format). The payload is shared with the local
// importing side: implementations may retain the slices but must not
// mutate them. The hook is called between races (solvers at rest) and
// should return quickly; slow transports must buffer internally.
//
// # Concurrency
//
// The k-induction engine races its base and step queries in parallel:
// implementations must accept concurrent Race/RaceLive calls (they are
// always for distinct queries) and concurrent OnClausePayload calls.
type Executor interface {
	Race(query Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult
	RaceLive(query Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult
	OnClausePayload(query Query, k int, from string, clauses []cnf.Clause)
}

// FrameSink is an optional Executor extension for implementations that
// mirror the warm pools' solver state elsewhere. When the configured
// executor implements it, the session reports every unrolled frame —
// query, depth, and the frame's delta formula — right after it is built
// and before the depth's RaceLive call; at that point no local solver has
// loaded it, and under a healthy fleet none ever will. The frame is owned
// by the pool and must not be mutated; an implementation may retain it
// (remote.Executor replays retained frames to reconnecting workers, whose
// mirrors restart empty).
type FrameSink interface {
	OnFrame(query Query, k int, frame *cnf.Formula)
}

// LocalExecutor runs races on the in-process goroutine pool
// (portfolio.Race / portfolio.RaceLive). It is the default and the only
// code path that constructs racer goroutines in-process; every engine
// configuration — single orderings included, as races of one — routes
// through it unless WithExecutor installs a replacement.
type LocalExecutor struct{}

// Race implements Executor with portfolio.Race.
func (LocalExecutor) Race(_ Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	return portfolio.Race(f, attempts, jobs, stop)
}

// RaceLive implements Executor with portfolio.RaceLive, which loads each
// attempt's solver in the worker slot that races it.
func (LocalExecutor) RaceLive(_ Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	return portfolio.RaceLive(attempts, assumps, jobs, stop)
}

// OnClausePayload is a no-op: the local clause bus redistributes
// in-process immediately after exporting.
func (LocalExecutor) OnClausePayload(Query, int, string, []cnf.Clause) {}
