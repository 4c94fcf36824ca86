package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/bench"
	"repro/internal/engine"
)

// Experiment is one artifact of the evaluation: which models, under which
// engine configurations, laid out how. Adding one is a column list, a
// renderer over the Grid, and a line in All().
type Experiment struct {
	Name string
	// Models is the default model set (nil: the whole suite); a Config
	// with its own Models overrides it.
	Models  []bench.Model
	Columns []Column
	// Write renders the grid as text; WriteCSV, when non-nil, as CSV.
	Write    func(w io.Writer, g *Grid)
	WriteCSV func(w io.Writer, g *Grid)
}

// Run fills the experiment's grid under the config's budgets.
func (e Experiment) Run(ctx context.Context, cfg Config) (*Grid, error) {
	if cfg.Models == nil {
		cfg.Models = e.Models
	}
	g, err := cfg.Run(ctx, e.Columns)
	if err != nil {
		return nil, fmt.Errorf("%s %w", e.Name, err)
	}
	return g, nil
}

// All returns every experiment in presentation order. (RunCDGMemory, §3.1,
// is the one artifact not here: it solves one formula with no recorder and
// under two proof recorders below the engine, so it is not a grid of
// engine configurations.)
func All() []Experiment {
	fig7, err := Figure7(bench.Fig7Model)
	if err != nil {
		panic(err) // the suite's designated Fig. 7 model always resolves
	}
	return []Experiment{
		table1(), figure6(), fig7,
		obsOverhead(),
		scoreAblation(), ThresholdSweep(16, 64, 256, 0), timeAxis(),
		portfolioAblation(), incrementalAblation(),
		warmAblation(), warmKindAblation(),
		refine(),
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
