package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/portfolio"
)

// Experiment is one artifact of the evaluation: its rows, the catalogue
// columns it reads and the renderer that lays their cells out. Adding one
// is its columns (new configurations go into the catalogue), a renderer
// over the Grid, and a line in All().
type Experiment struct {
	Name string
	// Models is the default model set (nil: the whole suite); a Config
	// with its own Models overrides it.
	Models []bench.Model
	// Columns are the catalogue columns the experiment reads, in the
	// order its grid holds them.
	Columns []Column
	// Write renders the grid as text; WriteCSV, when non-nil, as CSV.
	Write    func(w io.Writer, g *Grid)
	WriteCSV func(w io.Writer, g *Grid)
}

// RunAll solves, once each, every (model, column) cell that some
// experiment of exps reads, and hands each experiment, in order, the grid
// of its own rows and columns.
func RunAll(ctx context.Context, cfg Config, exps []Experiment, emit func(Experiment, *Grid)) error {
	g, err := cfg.fill(ctx, exps)
	if err != nil {
		return err
	}
	for _, e := range exps {
		emit(e, g.cut(cfg.models(e.Models...), e.Columns))
	}
	return nil
}

// Row narrows an experiment to one model of the suite, the row
// tablegen's -model picks for fig7.
func (e Experiment) Row(model string) (Experiment, error) {
	m, ok := bench.ByName(model)
	if !ok {
		return Experiment{}, fmt.Errorf("%s: unknown model %q", e.Name, model)
	}
	e.Models = []bench.Model{m}
	return e, nil
}

// All returns every experiment in presentation order. (RunCDGMemory, §3.1,
// is the one artifact not here: it solves one formula with no recorder and
// under two proof recorders below the engine, so it is not a grid of
// engine configurations.)
func All() []Experiment {
	return []Experiment{
		{Name: "table1", Columns: columns("vsids", "static", "dynamic"), Write: writeTable1, WriteCSV: writeTable1CSV},
		{Name: "fig6", Columns: columns("vsids", "static", "dynamic"), Write: writeFigure6, WriteCSV: writeFigure6CSV},
		{Name: "fig7", Models: subset([]string{bench.Fig7Model}), Columns: columns("vsids", "dynamic"),
			Write: writeFigure7, WriteCSV: writeFigure7CSV},
		obsOverhead(),
		scoreAblation(), threshold(), timeAxis(),
		portfolioAblation(),
		{Name: "incremental", Models: AblationModels(), Columns: columns("dynamic", "dynamic-incr"), Write: writeIncremental},
		warmAblation(), warmKindAblation(),
		{Name: "refine", Columns: columns("vsids", "dynamic", "vsids-incr", "dynamic-incr"), Write: writeRefine},
	}
}

// ByName resolves an experiment of All by name.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// catalogue is every engine configuration the registry reads, each under
// the one name it has in every experiment that reads it: a (model, name)
// cell is solved once however many experiments show it.
func catalogue() []Column {
	static := engine.WithOrdering(core.OrderStatic)
	dynamic := engine.WithOrdering(core.OrderDynamic)
	race := engine.WithPortfolio(portfolio.DefaultSet(), 0)
	kind := []engine.Option{engine.WithEngine(engine.KInduction), race, capConflicts(3000)}
	cols := []Column{
		// The paper's comparison: plain VSIDS against the refined static
		// and dynamic orderings from scratch, and VSIDS and dynamic on the
		// incremental depth loop (one live solver whose clause database
		// and scores compound across depths).
		fixed("vsids", engine.WithOrdering(core.OrderVSIDS)),
		fixed("static", static),
		fixed("dynamic", dynamic),
		fixed("vsids-incr", engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental()),
		fixed("dynamic-incr", dynamic, engine.WithIncremental()),
		// Shtrichman's time-axis ordering, the related-work comparator.
		fixed("timeaxis", engine.WithOrdering(core.OrderTimeAxis)),
		// §3.3: the dynamic switch at other divisors than the paper's 64.
		fixed("lits/16", dynamic, engine.WithSwitchDivisor(16)),
		fixed("lits/256", dynamic, engine.WithSwitchDivisor(256)),
		// The concurrent portfolio of the four orderings, on fresh solvers
		// per depth and as the warm racer pool; the same pair over the
		// k-induction base and step pools (warmKindAblation).
		fixed("portfolio", race),
		fixed("warm", race, engine.WithIncremental()),
		fixed("kind-portfolio", kind...),
		fixed("kind-warm", append(kind, engine.WithIncremental())...),
		// dynamic-incr with the observability layer on: a fresh metrics
		// registry and tracer per run.
		{Name: "dynamic-incr+obs", Options: func() []engine.Option {
			return []engine.Option{dynamic, engine.WithIncremental(),
				engine.WithMetrics(obs.NewRegistry()), engine.WithTracer(obs.NewTracer())}
		}},
	}
	// §3.2: static under the other score rules (the paper's weighted sum
	// is static itself).
	for _, mode := range []core.ScoreMode{core.UnweightedSum, core.LastCoreOnly, core.ExpDecay} {
		cols = append(cols, fixed(mode.String(), static, engine.WithScoreMode(mode)))
	}
	return cols
}

// columns returns the named catalogue columns, in order.
func columns(names ...string) []Column {
	all := catalogue()
	out := make([]Column, len(names))
	for i, name := range names {
		c := slices.IndexFunc(all, func(col Column) bool { return col.Name == name })
		if c < 0 {
			panic(fmt.Sprintf("experiments: no column %q in the catalogue", name))
		}
		out[i] = all[c]
	}
	return out
}

// fixed is a column whose options carry no per-run state.
func fixed(name string, opts ...engine.Option) Column {
	return Column{Name: name, Options: func() []engine.Option { return slices.Clone(opts) }}
}

// capConflicts caps each SAT call at n conflicts: it tightens the Config's
// per-instance budget, never loosens it.
func capConflicts(n int64) engine.Option {
	return func(c *engine.Config) { c.PerInstanceConflicts = tighten(c.PerInstanceConflicts, n) }
}

// header is what a table prints over the column: its Header, else its
// name.
func (c Column) header() string { return cmp.Or(c.Header, c.Name) }

// AblationModels returns the representative suite subset the ablation
// experiments run on: a few models from each regime, so one sweep stays
// minutes-scale while still covering the behaviours the full table
// exhibits.
func AblationModels() []bench.Model {
	return subset([]string{
		"mix_w7", "pipe_s4", "add_w4", "add_w8",
		"twin_w10", "gcnt_m12", "tlc",
		"cnt_w5_t13", "lock_s8", "phase_d5_f",
	})
}

// OverheadModels returns the subset for §3.1 (RunCDGMemory) and obs-overhead:
// search-heavy models where the recorder has real work to do (on BCP-trivial
// rows the overhead would drown in formula-build noise).
func OverheadModels() []bench.Model {
	return subset([]string{
		"mix_w6", "mix_w7", "mix_w10", "pipe_s4",
		"add_w4", "add_w8", "twin_w12", "cnt_w6_t24",
	})
}

func subset(names []string) []bench.Model {
	out := make([]bench.Model, 0, len(names))
	for _, n := range names {
		m, ok := bench.ByName(n)
		if !ok {
			panic(fmt.Sprintf("experiments: suite model %q missing", n))
		}
		out = append(out, m)
	}
	return out
}
