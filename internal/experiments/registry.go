package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
)

// Experiment is one artifact of the evaluation: which models, under which
// engine configurations, laid out how. Adding one is a column list, a
// renderer over the Grid, and a line in All(); adding a view of the suite
// grid is its rows, the suite columns it reads and a renderer (view).
type Experiment struct {
	Name string
	// Models is the default model set (nil: the whole suite); a Config
	// with its own Models overrides it.
	Models  []bench.Model
	Columns []Column
	// Reads, on a view of the suite grid, lists the suite columns it
	// reads (its Columns are the suite's); nil on an experiment that
	// reads all of its Columns.
	Reads []int
	// Write renders the grid as text; WriteCSV, when non-nil, as CSV.
	Write    func(w io.Writer, g *Grid)
	WriteCSV func(w io.Writer, g *Grid)
}

// RunAll fills the grids of exps and hands each experiment its grid, in
// order. The views among them share one fill of the suite grid, which
// RunAll returns (empty without a view); every other experiment fills its
// own.
func RunAll(ctx context.Context, cfg Config, exps []Experiment, emit func(Experiment, *Grid)) (*Grid, error) {
	suite, err := cfg.fill(ctx, slices.DeleteFunc(slices.Clone(exps), func(e Experiment) bool { return e.Reads == nil }))
	if err != nil {
		return nil, fmt.Errorf("suite %w", err)
	}
	for _, e := range exps {
		g := suite
		if e.Reads == nil {
			if g, err = cfg.fill(ctx, []Experiment{e}); err != nil {
				return nil, fmt.Errorf("%s %w", e.Name, err)
			}
		}
		rows := &Grid{Models: cfg.models(e.Models...), Columns: g.Columns}
		for _, m := range rows.Models {
			i := slices.IndexFunc(g.Models, func(r bench.Model) bool { return r.Name == m.Name })
			rows.Cells = append(rows.Cells, g.Cells[i])
		}
		emit(e, rows)
	}
	return suite, nil
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
	scratch := []int{ConfBase, ConfStatic, ConfDynamic}
	return []Experiment{
		view("table1", nil, scratch, writeTable1, writeTable1CSV),
		view("fig6", nil, scratch, writeFigure6, writeFigure6CSV),
		view("fig7", subset([]string{bench.Fig7Model}), []int{ConfBase, ConfDynamic}, writeFigure7, writeFigure7CSV),
		obsOverhead(),
		scoreAblation(), ThresholdSweep(16, 64, 256, 0), timeAxis(),
		portfolioAblation(),
		view("incremental", AblationModels(), []int{ConfDynamic, ConfDynamicIncr}, writeIncremental, nil),
		warmAblation(), warmKindAblation(),
		view("refine", nil, []int{ConfBase, ConfDynamic, ConfBaseIncr, ConfDynamicIncr}, writeRefine, nil),
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

// The suite grid's columns. The first numConfs are Table 1's
// configurations, so they index a Table1Row's arrays too.
const (
	ConfBase = iota // vsids from scratch: the paper's plain BMC
	ConfStatic
	ConfDynamic
	ConfBaseIncr // vsids on the incremental depth loop
	ConfDynamicIncr

	numConfs = ConfDynamic + 1
)

// suiteColumns is the paper's comparison, defined once: plain VSIDS
// against the refined static and dynamic orderings from scratch, and
// VSIDS and dynamic on the incremental depth loop (one live solver whose
// clause database and scores compound across depths).
func suiteColumns() []Column {
	return []Column{
		fixed("vsids", engine.WithOrdering(core.OrderVSIDS)),
		fixed("static", engine.WithOrdering(core.OrderStatic)),
		fixed("dynamic", engine.WithOrdering(core.OrderDynamic)),
		fixed("vsids-incr", engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental()),
		fixed("dynamic-incr", engine.WithOrdering(core.OrderDynamic), engine.WithIncremental()),
	}
}

// view is a view of the suite grid: its rows (nil: the whole suite), the
// suite columns it reads, and its renderers.
func view(name string, models []bench.Model, reads []int, write, writeCSV func(io.Writer, *Grid)) Experiment {
	return Experiment{Name: name, Models: models, Columns: suiteColumns(), Reads: reads, Write: write, WriteCSV: writeCSV}
}

// fixed is a column whose options carry no per-run state.
func fixed(name string, opts ...engine.Option) Column {
	return Column{Name: name, Options: func() []engine.Option { return slices.Clone(opts) }}
}

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
