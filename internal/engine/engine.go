// Package engine is the session API over every verification
// configuration in this repository: one context-aware entrypoint
//
//	sess, err := engine.New(circ, propIdx,
//	        engine.WithEngine(engine.KInduction),
//	        engine.WithPortfolio(nil, 4),
//	        engine.WithIncremental())
//	res, err := sess.Check(ctx)
//
// and, behind it, one depth loop (loop.go) — the paper's Fig. 5 — over
// three independent choices: the instance sequence (BMC checks one;
// k-induction checks a base and a step sequence and cancels a step race
// its base verdict made moot), the solver lifetime (fresh solvers per
// depth, or persistent ones fed per-depth deltas with WithIncremental),
// and the attempt set (a portfolio's strategy set; a single ordering is
// a portfolio of one). The engine×ordering×incremental matrix is
// validated in one place (Config.Validate), results come back as one
// Result (verdict, depth, trace, per-depth stats, portfolio telemetry,
// warm-win attribution), cancellation and deadlines are carried by
// the context.Context passed to Check and plumbed down to every solver
// through sat.Options.Stop/Deadline, and per-depth progress streams
// through WithProgress.
//
// Behind the session sits the Executor seam: every race of every shape —
// cold or warm, four strategies or one — is submitted through the
// Executor interface, so a remote executor (internal/remote: TCP workers
// that unroll the shipped circuit and race it, first verdict cancels the
// rest) slots in behind the same session API via WithExecutor.
// LocalExecutor, the default, wraps the in-process goroutine pool.
package engine

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// Verdict classifies the outcome of a check, across both engines.
type Verdict int

// Verdicts.
const (
	// Unknown: a budget (conflicts, deadline, context cancellation, or
	// the k-induction depth bound) ran out before a verdict.
	Unknown Verdict = iota
	// Falsified: a counter-example was found and replayed on the circuit
	// simulator.
	Falsified
	// Holds: no counter-example up to the BMC depth bound — a bounded
	// guarantee (BMC engine only).
	Holds
	// Proved: the property holds on all reachable states (k-induction
	// engine only).
	Proved
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Falsified:
		return "falsified"
	case Holds:
		return "holds"
	case Proved:
		return "proved"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the verdict as its string form (cmd/bmc -json).
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// UnmarshalJSON parses the string form back (consumers of cmd/bmc -json).
func (v *Verdict) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"falsified"`:
		*v = Falsified
	case `"holds"`:
		*v = Holds
	case `"proved"`:
		*v = Proved
	default:
		*v = Unknown
	}
	return nil
}

// DepthStats records the solve of a single depth — the rows of the
// paper's Fig. 7, extended with portfolio and warm-pool columns.
type DepthStats struct {
	K      int        `json:"k"`
	Status sat.Status `json:"status"`
	Stats  sat.Stats  `json:"stats"`
	// Winner names the strategy whose verdict was kept at this depth
	// (portfolio runs only; empty otherwise).
	Winner string `json:"winner,omitempty"`
	// Wall is the wall-clock time of this depth, including CNF
	// generation, the SAT call(s), and score maintenance. EncodeWall and
	// SolveWall split out its two dominant parts: building the depth's
	// CNF (on every shape the cost of the depth's frame: scratch shapes
	// grow their whole-instance formula in place by it before the race,
	// incremental ones build it as a delta inside the race, when the first
	// solver loads it — so there it is part of SolveWall too, and zero
	// when the race ran on a remote worker), and the SAT call (the race's
	// wall for portfolio runs). Loading a solver belongs to SolveWall on
	// every shape: the whole formula's sat.Solver.Load on scratch shapes
	// and, on incremental ones, the catch-up a solver does when it is
	// about to search.
	Wall       time.Duration `json:"wall"`
	EncodeWall time.Duration `json:"encode_wall,omitempty"`
	SolveWall  time.Duration `json:"solve_wall,omitempty"`
	// FormulaVars/Clauses/Lits size the whole instance the depth solved —
	// every clause it holds, not the ones encoded at this depth: a scratch
	// depth's grown formula, a persistent solver's frames so far.
	FormulaVars    int `json:"formula_vars"`
	FormulaClauses int `json:"formula_clauses"`
	FormulaLits    int `json:"formula_lits"`
	// CoreClauses/CoreVars describe the extracted unsat core (0 on SAT
	// or when recording is off).
	CoreClauses int `json:"core_clauses"`
	CoreVars    int `json:"core_vars"`
	// RecorderBytes is what the CDG holds (core.Recorder.ApproxBytes).
	RecorderBytes int64 `json:"recorder_bytes"`
	// CoreOverlap is the Jaccard overlap |A∩B| / |A∪B| between this
	// depth's core variables and the previous depth's — how stable the
	// cores the refined ordering learns from are. nil (absent from JSON) at
	// depth 0 and wherever this depth or the one before folded no core: a
	// SAT or undecided depth, recording off, or a win on a remote worker.
	CoreOverlap *float64 `json:"core_overlap,omitempty"`
	// HeapAllocBytes/TotalAllocBytes/GCCount are runtime memory readings
	// (runtime.ReadMemStats) sampled as the depth finished — instrumented
	// (WithMetrics) sessions only, zero otherwise. HeapAllocBytes is the
	// live heap at that instant; TotalAllocBytes and GCCount count bytes
	// allocated and GC cycles since the check started, so they grow
	// monotonically over depths and consecutive depths subtract to
	// per-depth figures.
	HeapAllocBytes  int64 `json:"heap_alloc_bytes,omitempty"`
	TotalAllocBytes int64 `json:"total_alloc_bytes,omitempty"`
	GCCount         int64 `json:"gc_count,omitempty"`
}

// Result is the unified outcome of Session.Check: one struct covers
// every engine×ordering×incremental configuration, with fields
// that do not apply to the ran configuration left at their zero values.
type Result struct {
	// Engine echoes the session's engine kind.
	Engine Kind `json:"engine"`
	// Verdict is the outcome; K its depth: the counter-example length
	// for Falsified, the deepest fully checked depth for Holds, the
	// closing induction depth for Proved, and for Unknown the depth the
	// budget ran out at (BMC: the first unfinished depth; k-induction:
	// the last depth whose queries ran, -1 if none).
	Verdict Verdict `json:"verdict"`
	K       int     `json:"k"`
	// Trace is the counter-example (Falsified only).
	Trace *unroll.Trace `json:"trace,omitempty"`
	// PerDepth records every solved depth (BMC engine only).
	PerDepth []DepthStats `json:"per_depth,omitempty"`
	// Total accumulates solver statistics: for BMC, across the depth
	// loop (portfolio runs count winners only); zero for k-induction
	// (see BaseStats/StepStats).
	Total sat.Stats `json:"total"`
	// BaseStats/StepStats accumulate per-query statistics (k-induction
	// engine only; portfolio runs count winners only).
	BaseStats sat.Stats `json:"base_stats,omitzero"`
	StepStats sat.Stats `json:"step_stats,omitzero"`
	// TotalTime is the wall-clock time of the whole check.
	TotalTime time.Duration `json:"total_time"`
	// Strategies and Jobs echo the portfolio configuration (portfolio
	// runs only); Warm marks persistent-pool (incremental portfolio)
	// runs.
	Strategies []string `json:"strategies,omitempty"`
	Jobs       int      `json:"jobs,omitempty"`
	Warm       bool     `json:"warm,omitempty"`
	// Telemetry records which ordering won at which depth (BMC portfolio
	// runs).
	Telemetry *portfolio.Telemetry `json:"telemetry,omitempty"`
	// BaseTelemetry/StepTelemetry are the per-query race telemetries
	// (k-induction portfolio runs).
	BaseTelemetry *portfolio.Telemetry `json:"base_telemetry,omitempty"`
	StepTelemetry *portfolio.Telemetry `json:"step_telemetry,omitempty"`
	// Metrics is the session registry's snapshot at the end of the check
	// (WithMetrics sessions only).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// HeapAllocBytes/TotalAllocBytes/GCCount are the check's final memory
	// telemetry (WithMetrics sessions only; the instantaneous readings
	// behind them are the mem_* gauges in Metrics): the live heap as the
	// check ended, and the bytes allocated / GC cycles spent by this
	// check (deltas from the check's start, so repeated Checks in one
	// process stay comparable).
	HeapAllocBytes  int64 `json:"heap_alloc_bytes,omitempty"`
	TotalAllocBytes int64 `json:"total_alloc_bytes,omitempty"`
	GCCount         int64 `json:"gc_count,omitempty"`
}

// Session is one configured check of one property: circuit, property
// index, and a validated Config. Check may be called repeatedly; every
// call runs from scratch with fresh solvers and boards.
type Session struct {
	circ    *circuit.Circuit
	propIdx int
	cfg     Config
	// mem publishes depth-boundary memory readings into the session
	// registry; nil (no-op) without WithMetrics. memBase is the reading
	// taken as the current Check started — the zero point of the
	// cumulative columns (TotalAllocBytes, GCCount).
	mem     *obs.MemSampler
	memBase obs.MemSample
}

// New builds a session for property propIdx of the circuit. The
// configuration starts from defaults (BMC engine, dynamic ordering,
// depth 20, LocalExecutor; every solver runs the fixed tuning) and is
// refined by the options; it is validated here, so a non-nil error means
// either an invalid knob combination (Config.Validate's message names it)
// or a structurally invalid circuit/property index.
func New(c *circuit.Circuit, propIdx int, opts ...Option) (*Session, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Validate the circuit and property index up front; Check rebuilds
	// its own unroller per call (unrollers carry per-run state).
	if _, err := unroll.New(c, propIdx); err != nil {
		return nil, err
	}
	return &Session{circ: c, propIdx: propIdx, cfg: cfg, mem: obs.NewMemSampler(cfg.Metrics)}, nil
}

// Config returns a copy of the session's effective configuration.
func (s *Session) Config() Config { return s.cfg }

// Check runs the configured verification under ctx. Cancellation and
// deadline are honored in every configuration: the context's Done
// channel is plumbed into every solver's cooperative stop poll and into
// every race's cancellation, and its deadline into sat.Options.Deadline,
// so Check returns promptly (bounded by the solver poll interval) with
// Verdict == Unknown and the partial results gathered so far. A non-nil
// error is reserved for structural problems (a counter-example that
// fails replay); budget and cancellation outcomes are verdicts, not
// errors.
func (s *Session) Check(ctx context.Context) (*Result, error) {
	u, err := unroll.New(s.circ, s.propIdx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if s.mem != nil {
		s.memBase = s.mem.Sample()
	}
	root := s.cfg.Tracer.Begin("engine", "check")
	root.SetArg("engine", s.cfg.Kind.String())
	res, err := s.run(ctx, u)
	if err != nil {
		root.SetArg("error", err.Error())
		root.End()
		return nil, err
	}
	res.Engine = s.cfg.Kind
	res.TotalTime = time.Since(start)
	if s.mem != nil {
		m := s.mem.Sample()
		res.HeapAllocBytes = m.HeapAlloc
		res.TotalAllocBytes = m.TotalAlloc - s.memBase.TotalAlloc
		res.GCCount = m.GCCount - s.memBase.GCCount
	}
	if s.cfg.Metrics != nil {
		snap := s.cfg.Metrics.Snapshot()
		res.Metrics = &snap
	}
	root.SetArg("verdict", res.Verdict.String())
	root.SetArg("k", res.K)
	root.End()
	return res, nil
}

// executor resolves the configured executor (default LocalExecutor).
func (s *Session) executor() Executor {
	if s.cfg.Executor != nil {
		return s.cfg.Executor
	}
	return LocalExecutor{}
}

// emit delivers a progress event to the configured consumer, if any.
func (s *Session) emit(e Event) {
	if s.cfg.Progress != nil {
		s.cfg.Progress(e)
	}
}
