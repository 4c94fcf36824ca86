package sat

import (
	"time"

	"repro/internal/lits"
)

// Status is the outcome of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unknown means the solver exhausted a budget (conflicts, decisions,
	// or deadline) before reaching an answer.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was proven unsatisfiable.
	Unsat
	// Interrupted means the solve was cancelled through Options.Stop before
	// reaching an answer. Like Unknown it carries no verdict; it is kept
	// distinct so callers (the portfolio engine) can tell "lost the race"
	// from "ran out of budget".
	Interrupted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	case Interrupted:
		return "INTERRUPTED"
	default:
		return "UNKNOWN"
	}
}

// Decided reports whether the status is a verdict (Sat or Unsat) rather
// than a budget or cancellation outcome.
func (s Status) Decided() bool { return s == Sat || s == Unsat }

// MarshalJSON renders the status as its string form (cmd/bmc -json).
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string form back (consumers of cmd/bmc -json).
func (s *Status) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"SAT"`:
		*s = Sat
	case `"UNSAT"`:
		*s = Unsat
	case `"INTERRUPTED"`:
		*s = Interrupted
	default:
		*s = Unknown
	}
	return nil
}

// ProofRecorder receives the resolution-dependency events the solver emits
// while searching. It is the hook through which the refinement layer
// (internal/core) maintains the paper's Conflict Dependency Graph. The
// graph needs clause pseudo IDs only; a learned clause's literals are
// passed along and the recorder decides whether to keep them — the paper's
// simplified CDG does not, so it stays small and the solver stays free to
// delete learned clauses; the complete CDG (proof checking) does.
//
// A record lives while a live clause's derivation can reach it: deleting a
// learned clause does not end its record, but once no clause the solver
// holds was derived from it, no later conflict and no final conflict can
// name it, and Forget lets the recorder drop it.
//
// A nil recorder disables all bookkeeping (and its runtime overhead).
type ProofRecorder interface {
	// RecordLearned reports a newly learned clause: its pseudo ID, its
	// literals, and the IDs of every antecedent clause used in the
	// resolution that derived it (the conflicting clause, the reason
	// clauses resolved on, clauses used by learned-clause minimization,
	// and the level-0 implication chains of dropped literals). Both slices
	// are the solver's per-conflict buffers: they are only valid during
	// the call and must be copied if retained.
	RecordLearned(id ClauseID, literals []lits.Lit, antecedents []ClauseID)
	// RecordFinal reports that unsatisfiability was established, with the
	// antecedents of the final (empty-clause) conflict. It is called at
	// most once per Solve.
	RecordFinal(antecedents []ClauseID)
	// Forget reports, each time clause-database reduction compacts the
	// clause store, the IDs of every learned clause the solver still holds
	// — the reasons of the trail among them. Any
	// later antecedent is one of these, a clause added after the call, or
	// an original. The slice is the solver's scratch, valid only during the
	// call.
	Forget(live []ClauseID)
}

// Options is what varies from one attempt to the next: the paper's
// decision order (Guidance and its switch), the budgets, and three
// process-local hooks. The zero value is what every solver runs: no
// guidance, no budget, no hook. The search itself — rescoring, restarts,
// learnt-clause deletion, minimisation, polling — is fixed by the tuning
// constants below and is the same for every attempt.
type Options struct {
	// Guidance is an optional per-variable score (indexed by variable,
	// entry 0 unused) consulted *before* cha_score when picking decisions:
	// this is the paper's bmc_score. nil disables guidance.
	Guidance []float64
	// SwitchAfterDecisions, when > 0, permanently disables Guidance for
	// the remainder of the solve once the decision count exceeds it (the
	// paper's dynamic strategy uses #original_literals/64).
	SwitchAfterDecisions int64

	// MaxConflicts is the conflict budget; zero means unlimited.
	MaxConflicts int64
	// Deadline, when nonzero, aborts the solve (status Unknown) once
	// passed; checked every pollEvery search steps.
	Deadline time.Time

	// Stop, when non-nil, requests cooperative cancellation: once the
	// channel is closed the solve returns status Interrupted at the next
	// poll point. A context.Context's Done() channel plugs in directly.
	// Polling happens every pollEvery search steps (conflicts and
	// decisions), so the single-threaded path with Stop == nil pays
	// nothing and the cancellable path pays one counter increment per
	// step plus a rare non-blocking channel read.
	Stop <-chan struct{}

	// Recorder receives proof events; nil disables recording.
	Recorder ProofRecorder

	// Metrics, when non-nil, receives each call's Stats flushed into obs
	// counters at the end of Solve/SolveAssuming (one branch per call;
	// the search loop is not instrumented per step).
	Metrics *Metrics

	// tune replaces the tuning constants; nil means the constants. Only
	// this package's tests set it.
	tune *tuning
}

// The solver's tuning: Chaff-style rescoring with Luby restarts and
// MiniSat-style learnt-clause deletion. None is an option, because no
// attempt varies them; a heuristic change edits them here.
const (
	rescoreInterval = 255     // conflicts between cha_score rescores
	restartUnit     = 100     // conflicts in a unit of the Luby restart sequence
	restartInc      = 1.5     // interval growth of the geometric schedule
	maxLearntFrac   = 1.0 / 3 // initial learnt-clause limit per original clause
	minLearnts      = 1000    // floor of the initial learnt-clause limit
	maxLearntInc    = 1.1     // learnt-clause limit growth at each reduction
	garbageDen      = 5       // reduceDB compacts at 1/garbageDen of the arena garbage
	pollEvery       = 64      // search steps between Stop/deadline polls
)

// tuning is the search parameters a solver reads. defaultTuning holds the
// constants; tests swap in other values through Options.tune.
type tuning struct {
	rescoreInterval int
	restartFirst    int     // first restart interval, or the Luby unit
	restartInc      float64 // geometric growth when luby is off
	luby            bool
	maxLearntFrac   float64
	minLearnts      float64
	maxLearntInc    float64
	garbageDen      int
	maxDecisions    int64 // decision budget; zero means unlimited
	pollEvery       int
}

var defaultTuning = tuning{
	rescoreInterval: rescoreInterval,
	restartFirst:    restartUnit,
	restartInc:      restartInc,
	luby:            true,
	maxLearntFrac:   maxLearntFrac,
	minLearnts:      minLearnts,
	maxLearntInc:    maxLearntInc,
	garbageDen:      garbageDen,
	pollEvery:       pollEvery,
}

// tuning returns the parameters a solver loaded with o searches with.
func (o Options) tuning() tuning {
	if o.tune != nil {
		return *o.tune
	}
	return defaultTuning
}

// Defaults returns the zero Options. It remains only for the benchmark's
// layer driver (benchmark/driver.go) and is deleted together with that
// file; everything else writes Options{}.
func Defaults() Options { return Options{} }

// Stats aggregates the search counters of one Solve call. Decisions and
// Implications are the quantities plotted in the paper's Figure 7.
type Stats struct {
	Decisions    int64 // branching assignments
	Implications int64 // assignments made by Boolean constraint propagation
	Conflicts    int64 // falsified clauses encountered
	Restarts     int64
	Learned      int64 // learned clauses added
	LearnedLits  int64 // total literals across learned clauses
	Deleted      int64 // learned clauses removed by database reduction
	MaxLevel     int   // deepest decision level reached

	// GuidanceSwitched reports that the dynamic strategy abandoned the
	// bmc_score ordering mid-solve; SwitchDecision is the decision count
	// at which it happened.
	GuidanceSwitched bool
	SwitchDecision   int64
	// GuidedDecisions counts the decisions taken on a variable whose
	// guidance score is above zero while guidance was active: how many of
	// Decisions the refined ordering chose rather than cha_score.
	GuidedDecisions int64

	SolveTime time.Duration
}

// Add accumulates other into s (SolveTime sums; MaxLevel takes the max;
// SwitchDecision keeps the first nonzero value, i.e. the decision count of
// the earliest solve whose dynamic switch fired).
func (s *Stats) Add(other Stats) {
	s.Decisions += other.Decisions
	s.GuidedDecisions += other.GuidedDecisions
	s.Implications += other.Implications
	s.Conflicts += other.Conflicts
	s.Restarts += other.Restarts
	s.Learned += other.Learned
	s.LearnedLits += other.LearnedLits
	s.Deleted += other.Deleted
	if other.MaxLevel > s.MaxLevel {
		s.MaxLevel = other.MaxLevel
	}
	s.GuidanceSwitched = s.GuidanceSwitched || other.GuidanceSwitched
	if s.SwitchDecision == 0 {
		s.SwitchDecision = other.SwitchDecision
	}
	s.SolveTime += other.SolveTime
}

// Result is the outcome of Solve: the status, the model when satisfiable,
// and the search statistics (per-call for a reused incremental solver).
type Result struct {
	Status Status
	// Model is a total assignment satisfying the formula; only valid when
	// Status == Sat. Variables not occurring in any clause default false.
	Model lits.Assignment
	// FailedAssumptions is an inconsistent subset of the literals passed to
	// SolveAssuming, set when Status == Unsat was established under
	// assumptions (nil when the clause set is unsatisfiable outright). It
	// is the assumption-level analogue of an unsat core: the clauses remain
	// satisfiable without these assumptions as far as this call proved.
	FailedAssumptions []lits.Lit
	Stats             Stats
}
