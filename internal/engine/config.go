package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/racer"
)

// Kind selects the verification engine a session runs.
type Kind int

// Engines.
const (
	// BMC is plain bounded model checking: search for a counter-example
	// of increasing length up to the depth bound.
	BMC Kind = iota
	// KInduction is temporal induction: BMC base cases plus the inductive
	// step query, proving properties outright when the step closes.
	KInduction
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BMC:
		return "bmc"
	case KInduction:
		return "k-induction"
	default:
		return "?"
	}
}

// Config is the full, validated configuration of a Session. Build one
// through New's functional options; direct construction is supported for
// tests and for callers that want to Validate a combination without
// opening a circuit (cmd/bmc's flag translation does exactly that).
type Config struct {
	// Kind selects the verification engine (BMC or KInduction).
	Kind Kind
	// MaxDepth is the largest unrolling depth / induction depth checked
	// (inclusive).
	MaxDepth int
	// Ordering is the decision-ordering strategy of single-strategy runs;
	// ignored when Portfolio is set (the portfolio races Strategies).
	Ordering core.Strategy
	// Portfolio races a strategy set at every depth instead of running
	// one ordering.
	Portfolio bool
	// Strategies is the raced set (Portfolio only; empty selects
	// portfolio.DefaultSet).
	Strategies portfolio.StrategySet
	// Jobs caps concurrent solvers per race (Portfolio only; <= 0 means
	// one per strategy).
	Jobs int
	// Incremental keeps live solvers across depths — the warm racer pool:
	// one persistent solver per raced strategy (a pool of one for
	// single-strategy runs).
	Incremental bool
	// ScoreMode selects the bmc_score accumulation rule of every score
	// board: the bmc and base sequences'. The k-induction step sequence
	// has no board, since no step core is ever read.
	ScoreMode core.ScoreMode
	// SwitchDivisor overrides the dynamic strategy's switch threshold
	// divisor (0 selects the paper's core.SwitchDivisor, 64; negative is
	// rejected).
	SwitchDivisor int
	// PerInstanceConflicts bounds each SAT call (0 = unlimited). It is the
	// only solver option a configuration sets; the solver's tuning is
	// fixed in internal/sat.
	PerInstanceConflicts int64
	// Certify records complete proofs and certifies each UNSAT winner's
	// before folding its core; a rejected or missing one fails Check.
	Certify bool
	// Progress, when non-nil, receives per-depth events as the check
	// runs. It is called synchronously from the depth loop's goroutine,
	// never concurrently.
	Progress func(Event)
	// Executor runs the session's races; nil selects LocalExecutor (the
	// in-process goroutine pool).
	Executor Executor
	// Metrics, when non-nil, collects instrumentation from every layer of
	// the check — solver counters per query and strategy, race outcomes,
	// frame-build costs — and its snapshot lands in Result.Metrics. Nil
	// (the default) keeps every hot path on its one-branch no-op.
	Metrics *obs.Registry
	// Tracer, when non-nil, records the check as Chrome-trace spans: the
	// root check span, per-depth and per-race spans on each query's lane,
	// and one span per racer attempt on its strategy's lane.
	Tracer *obs.Tracer
}

// Option is a functional configuration knob for New.
type Option func(*Config)

// WithEngine selects the verification engine (default BMC).
func WithEngine(k Kind) Option { return func(c *Config) { c.Kind = k } }

// WithOrdering selects the decision ordering of a single-strategy run
// (default core.OrderDynamic, the paper's best configuration).
func WithOrdering(st core.Strategy) Option { return func(c *Config) { c.Ordering = st } }

// WithPortfolio races the given strategy set at every depth, first
// verdict wins (nil or empty set selects portfolio.DefaultSet). jobs
// caps the concurrent solvers per race; <= 0 means one per strategy.
func WithPortfolio(set portfolio.StrategySet, jobs int) Option {
	return func(c *Config) {
		c.Portfolio = true
		c.Strategies = set
		c.Jobs = jobs
	}
}

// WithIncremental keeps live solvers across depths (with WithPortfolio:
// the warm racer pool).
func WithIncremental() Option { return func(c *Config) { c.Incremental = true } }

// WithExchange does nothing: no clause passes between racers. It stays
// only because the frozen benchmark (benchmark/workloads.go) still passes
// it; the benchmark's next revision deletes it with racer.ExchangeOptions.
func WithExchange(racer.ExchangeOptions) Option { return func(*Config) {} }

// WithBudgets sets the depth bound and the per-SAT-call conflict budget
// (0 = unlimited conflicts). Wall-clock budgets are carried by the
// context passed to Session.Check.
func WithBudgets(maxDepth int, perInstanceConflicts int64) Option {
	return func(c *Config) {
		c.MaxDepth = maxDepth
		c.PerInstanceConflicts = perInstanceConflicts
	}
}

// WithScoreMode selects the bmc_score accumulation rule.
func WithScoreMode(m core.ScoreMode) Option { return func(c *Config) { c.ScoreMode = m } }

// WithSwitchDivisor overrides the dynamic strategy's switch divisor: the
// ordering reverts to VSIDS after #literals/d decisions. 0 selects the
// paper's 64 (core.SwitchDivisor); Validate rejects a negative d.
func WithSwitchDivisor(d int) Option { return func(c *Config) { c.SwitchDivisor = d } }

// WithCertify certifies every UNSAT depth's proof and core (Config.Certify).
// On a persistent solver this costs more at every depth: Recorder.Proof
// materialises every record since the solver began, and proofcheck.Check
// replays the whole cone the final conflict reaches, the learnt clauses
// certified at earlier depths included. On a one-strategy warm pool
// (dynamic) on a 2-core Xeon, mix_w8 to depth 20 took 1.2 s uncertified
// and 14.5-16.4 s certified; add_w8 from scratch to depth 6 went from 3.5
// to 4.2 s.
func WithCertify() Option { return func(c *Config) { c.Certify = true } }

// WithProgress streams per-depth events to fn while the check runs.
func WithProgress(fn func(Event)) Option { return func(c *Config) { c.Progress = fn } }

// WithExecutor replaces the race executor (default LocalExecutor).
func WithExecutor(ex Executor) Option { return func(c *Config) { c.Executor = ex } }

// WithMetrics collects instrumentation from every layer of the check
// into reg; the session snapshots it into Result.Metrics.
func WithMetrics(reg *obs.Registry) Option { return func(c *Config) { c.Metrics = reg } }

// WithTracer records the check as Chrome-trace spans on tr (write the
// file with obs.Tracer.WriteJSON after Check returns).
func WithTracer(tr *obs.Tracer) Option { return func(c *Config) { c.Tracer = tr } }

// defaultConfig is New's starting point before options apply.
func defaultConfig() Config {
	return Config{
		Kind:     BMC,
		MaxDepth: 20,
		Ordering: core.OrderDynamic,
	}
}

// NewConfig applies the options on top of the defaults without building
// a session — for callers (cmd/bmc) that want to Validate a combination
// before opening a circuit.
func NewConfig(opts ...Option) Config {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Validate vets the configuration matrix in one place: every rejected
// combination errors out here with a message naming the offending knob.
// A nil error means Check can run the configuration.
func (c *Config) Validate() error {
	if c.Kind != BMC && c.Kind != KInduction {
		return fmt.Errorf("engine: unknown engine kind %d (valid: BMC, KInduction)", int(c.Kind))
	}
	if c.MaxDepth < 0 {
		return fmt.Errorf("engine: max depth must be >= 0, got %d", c.MaxDepth)
	}
	if c.PerInstanceConflicts < 0 {
		return fmt.Errorf("engine: per-instance conflict budget must be >= 0, got %d", c.PerInstanceConflicts)
	}
	if c.Jobs < 0 {
		return fmt.Errorf("engine: jobs must be >= 0 (0 = one solver per strategy), got %d", c.Jobs)
	}
	if c.SwitchDivisor < 0 {
		return fmt.Errorf("engine: switch divisor must be >= 0 (0 = the paper's %d), got %d", core.SwitchDivisor, c.SwitchDivisor)
	}
	if c.ScoreMode.String() == "unknown" {
		return fmt.Errorf("engine: unknown score mode %d (valid: weighted-sum, unweighted-sum, last-core-only, exp-decay)", int(c.ScoreMode))
	}
	if !c.Portfolio {
		if c.Jobs > 0 {
			return fmt.Errorf("engine: jobs require a portfolio (a single-ordering run has one solver per query)")
		}
		if len(c.Strategies) > 0 {
			return fmt.Errorf("engine: a strategy set requires a portfolio (a single-strategy run takes one ordering)")
		}
		if c.Ordering.String() == "unknown" {
			return fmt.Errorf("engine: unknown ordering strategy %d (valid: vsids, static, dynamic, timeaxis)", int(c.Ordering))
		}
	}
	return nil
}
