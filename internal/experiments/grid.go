// Package experiments reproduces every table and figure of the paper's
// evaluation section on the synthetic benchmark suite:
//
//	Table 1  — CPU time of plain BMC vs the refined orderings (static and
//	           dynamic) on all 37 models, with TOTAL and RATIO rows;
//	Figure 6 — the same data as scatter plots (one pane per configuration);
//	Figure 7 — per-depth decision and implication counts on one hard model;
//	§3.1     — the CDG's bookkeeping in time and bytes (RunCDGMemory);
//	plus ablations of the score rule, the dynamic switch threshold and the
//	engine shapes grown around the paper's loop.
//
// All but §3.1 are one experiment: a set of models checked under a handful
// of engine configurations, each a column of one catalogue that names a
// configuration the same way wherever it is read. Config.fill solves a
// Grid of (model × Column) engine results — the only place a session is
// built and checked — once per distinct cell however many experiments
// read it, and an Experiment is a default model set, the columns it reads
// and the renderer that lays its cut of the grid out as text (the paper's
// layout) and CSV. All() is the registry cmd/tablegen and the root
// benchmarks drive.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/portfolio"
)

// Config controls an experiment run.
type Config struct {
	// Models is the benchmark subset to run (default: the experiment's
	// own set, or the full suite for a bare Config.Run).
	Models []bench.Model
	// DepthCap, when > 0, caps every model's depth bound (used to scale
	// experiments down for quick runs and Go benchmarks).
	DepthCap int
	// PerInstanceConflicts bounds each SAT call; 0 = unlimited.
	PerInstanceConflicts int64
	// PerModelBudget bounds the wall-clock time of each (model, column)
	// run — the analogue of the paper's 2-hour timeout. 0 = none.
	PerModelBudget time.Duration
	// Repeats re-runs fast rows (every solved cell) up to this many times,
	// each cell keeping its fastest run, suppressing timer noise on rows
	// that finish in milliseconds (single-strategy searches are
	// deterministic, so only the wall clock varies between repeats). A
	// row is repeated while its first solved cell's kept run is under
	// repeatBelow. Zero means run once.
	Repeats int
}

// repeatBelow is the wall time under which a row is worth repeating.
const repeatBelow = 500 * time.Millisecond

// models returns the config's models, else the given defaults (an
// experiment's own rows), else the whole suite.
func (cfg Config) models(defaults ...bench.Model) []bench.Model {
	switch {
	case cfg.Models != nil:
		return cfg.Models
	case defaults != nil:
		return defaults
	}
	return bench.Suite()
}

func (cfg Config) depthFor(m bench.Model) int {
	return tighten(m.MaxDepth, cfg.DepthCap)
}

// tighten returns the smaller of two bounds, ignoring a non-positive
// ("unset") one.
func tighten[T int | int64](a, b T) T {
	if b > 0 && (a <= 0 || b < a) {
		return b
	}
	return a
}

// Column is one engine configuration of a grid, named so its cells stay
// stable across runs; a name is one configuration wherever it is read.
type Column struct {
	Name string
	// Header, when set, is what an experiment's table prints over the
	// column instead of its name.
	Header string
	// Options builds the configuration's engine options, fresh per run.
	// They apply after the model's and the Config's budgets, so an option
	// may tighten those.
	Options func() []engine.Option
}

// Grid is a finished experiment: Cells[i][c] is model i checked under
// column c.
type Grid struct {
	Models  []bench.Model
	Columns []Column
	Cells   [][]*engine.Result
}

// Run checks every model of the config under every column.
func (cfg Config) Run(ctx context.Context, cols []Column) (*Grid, error) {
	if len(cols) == 0 {
		return nil, errors.New("experiments: grid has no columns")
	}
	return cfg.fill(ctx, []Experiment{{Columns: cols}})
}

// fill solves, once each, the cells exps read: every experiment's rows
// under its columns, a column being one configuration wherever it is read
// (Column.Name). The grid holds each model and column once, in the order
// they are first read; a cell that no experiment reads stays nil. It runs
// row by row and sequentially, so one cell's racing never perturbs
// another's counters.
func (cfg Config) fill(ctx context.Context, exps []Experiment) (*Grid, error) {
	g := &Grid{}
	index := map[string]int{} // column name -> its index in g.Columns
	for _, e := range exps {
		for _, col := range e.Columns {
			if _, ok := index[col.Name]; !ok {
				index[col.Name] = len(g.Columns)
				g.Columns = append(g.Columns, col)
			}
		}
	}
	reads := map[string][]bool{}
	for _, e := range exps {
		for _, m := range cfg.models(e.Models...) {
			if reads[m.Name] == nil {
				g.Models = append(g.Models, m)
				reads[m.Name] = make([]bool, len(g.Columns))
			}
			for _, col := range e.Columns {
				reads[m.Name][index[col.Name]] = true
			}
		}
	}
	for _, m := range g.Models {
		row := make([]*engine.Result, len(g.Columns))
		first := slices.Index(reads[m.Name], true)
		for rep := 0; rep == 0 || (rep < cfg.Repeats && row[first].TotalTime < repeatBelow); rep++ {
			for c, col := range g.Columns {
				if !reads[m.Name][c] {
					continue
				}
				r, err := cfg.check(ctx, m, col)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", m.Name, col.Name, err)
				}
				if row[c] == nil || r.TotalTime < row[c].TotalTime {
					row[c] = r
				}
			}
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

// cut returns the grid of the given rows and columns, which g holds.
func (g *Grid) cut(models []bench.Model, cols []Column) *Grid {
	out := &Grid{Models: models, Columns: cols}
	for _, m := range models {
		i := slices.IndexFunc(g.Models, func(r bench.Model) bool { return r.Name == m.Name })
		row := make([]*engine.Result, len(cols))
		for c, col := range cols {
			row[c] = g.Cells[i][slices.IndexFunc(g.Columns, func(r Column) bool { return r.Name == col.Name })]
		}
		out.Cells = append(out.Cells, row)
	}
	return out
}

// check builds one engine session on a model under a column and the
// config's budgets (the per-model wall-clock budget rides on the
// context) and runs it.
func (cfg Config) check(ctx context.Context, m bench.Model, col Column) (*engine.Result, error) {
	opts := append([]engine.Option{engine.WithBudgets(cfg.depthFor(m), cfg.PerInstanceConflicts)}, col.Options()...)
	sess, err := engine.New(m.Build(), 0, opts...)
	if err != nil {
		return nil, err
	}
	if cfg.PerModelBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.PerModelBudget)
		defer cancel()
	}
	return sess.Check(ctx)
}

// Agreed reports whether every solved cell of row i that reached a
// verdict reached the same one at the same depth — the correctness half
// of every comparison. Budget-exhausted (Unknown) cells are excluded: one
// configuration finishing where another timed out is the expected win,
// not a disagreement.
func (g *Grid) Agreed(i int) bool {
	var ref *engine.Result
	for _, r := range g.Cells[i] {
		switch {
		case r == nil || r.Verdict == engine.Unknown:
		case ref == nil:
			ref = r
		case r.Verdict != ref.Verdict || r.K != ref.K:
			return false
		}
	}
	return true
}

// Disagreements counts the rows that did not agree.
func (g *Grid) Disagreements() int {
	n := 0
	for i := range g.Cells {
		if !g.Agreed(i) {
			n++
		}
	}
	return n
}

// TotalTime sums column c's wall time over its solved cells.
func (g *Grid) TotalTime(c int) time.Duration {
	return time.Duration(g.Total(c, func(r *engine.Result) int64 { return int64(r.TotalTime) }))
}

// Total sums count over column c's solved cells.
func (g *Grid) Total(c int, count func(*engine.Result) int64) int64 {
	var n int64
	for _, row := range g.Cells {
		if row[c] != nil {
			n += count(row[c])
		}
	}
	return n
}

// Conflicts is the run's kept search effort: the conflicts of the depth
// loop's solves (portfolio runs count winners only), over both queries
// for k-induction.
func Conflicts(r *engine.Result) int64 {
	return r.Total.Conflicts + r.BaseStats.Conflicts + r.StepStats.Conflicts
}

// spentConflicts is the total search effort of ALL racers of a racing
// run, over every query — winners, cancelled losers and deliberately
// aborted step races alike. The warm pools' whole point is turning loser
// conflicts into reusable work, which winner-only counters cannot see.
// Zero for non-racing runs (they carry no telemetry).
func spentConflicts(r *engine.Result) int64 {
	var n int64
	for _, t := range []*portfolio.Telemetry{r.Telemetry, r.BaseTelemetry, r.StepTelemetry} {
		if t == nil {
			continue
		}
		for _, c := range t.ConflictsSpent {
			n += c
		}
		n += t.AbortedConflicts
	}
	return n
}
