// Package perfbench is the repository's exact-regression gate: it runs a
// declarative list of (model × engine shape) cells through the
// experiments grid runner with an obs registry attached and reduces each
// run to a versioned, diffable artifact (BENCH_<suite>.json) —
// deterministic search counters, wall-time splits, and memory telemetry —
// which the compare side (Compare, cmd/bmcbench -baseline) diffs against
// a committed baseline: exact equality for verdict/depth, for the search
// counters of deterministic cells and for the cell set. Wall time and
// memory are recorded, not judged (timing is benchmark/'s contract, under
// alternating pairs at its own bounds). CI runs the quick suite against
// baselines/BENCH_quick.json, so a search-behaviour change fails the
// build instead of rotting in prose.
package perfbench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/racer"
	"repro/internal/remote"
)

// shape is an instrumented experiments.Column: the given options plus a
// fresh metrics registry per run, which is where a cell's memory and bus
// figures come from.
func shape(name string, deterministic bool, opts ...engine.Option) experiments.Column {
	return experiments.Column{Name: name, Deterministic: deterministic,
		Options: func() []engine.Option {
			return append(slices.Clone(opts), engine.WithMetrics(obs.NewRegistry()))
		}}
}

// Shapes returns the benchmark matrix's engine shapes in a fixed order.
// Single-strategy shapes are deterministic and compared exactly;
// portfolio/warm shapes — whose stats depend on race timing — only pin
// verdict and depth.
func Shapes() []experiments.Column {
	warmShared := []engine.Option{
		engine.WithPortfolio(nil, 0),
		engine.WithIncremental(),
		engine.WithExchange(racer.ExchangeOptions{Enabled: true}),
	}
	return []experiments.Column{
		shape("bmc-dynamic", true), // the session defaults: BMC, refined dynamic ordering
		shape("bmc-vsids", true, engine.WithOrdering(core.OrderVSIDS)),
		shape("bmc-incremental", true, engine.WithIncremental()),
		shape("kind-sequential", true, engine.WithEngine(engine.KInduction)),
		shape("bmc-warm-shared", false, warmShared...),
		shape("kind-warm", false,
			engine.WithEngine(engine.KInduction), engine.WithPortfolio(nil, 0), engine.WithIncremental()),
		// The warm portfolio with its races shipped to two in-process
		// loopback workers: bmc-warm-shared plus the full wire layer
		// (frame codec, mirror feeding, clause forwarding), so remote
		// overhead is trendable against the local shape on the same
		// cells.
		{Name: "bmc-warm-remote", Setup: func() ([]engine.Option, func(), error) {
			ex, err := remote.NewLoopback(2, remote.Options{Session: "perfbench"}, remote.WorkerOptions{})
			if err != nil {
				return nil, nil, err
			}
			return append(slices.Clone(warmShared),
				engine.WithMetrics(obs.NewRegistry()), engine.WithExecutor(ex)), func() { ex.Close() }, nil
		}},
	}
}

// ShapeByName resolves a shape by name.
func ShapeByName(name string) (experiments.Column, bool) {
	for _, s := range Shapes() {
		if s.Name == name {
			return s, true
		}
	}
	return experiments.Column{}, false
}

// Cell is one benchmark run: a model from internal/bench checked under
// one engine shape.
type Cell struct {
	// Model names an internal/bench model.
	Model string
	// Shape names an entry of Shapes().
	Shape string
	// MaxDepth caps the depth bound below the model's own MaxDepth
	// (0 keeps the model's).
	MaxDepth int
	// Conflicts bounds each SAT call (0 = unlimited). Budget-exhausted
	// cells record Unknown verdicts, deterministically so on
	// deterministic shapes.
	Conflicts int64
}

// Suite is a named, ordered cell list.
type Suite struct {
	Name  string
	Cells []Cell
}

// Suites returns the predefined suites:
//
//   - smoke: two sub-second cells, for tests of the harness itself.
//   - quick: the CI regression gate — small models across all six
//     shapes, a few seconds total.
//   - full: the quick suite plus larger models, for local trend runs.
func Suites() []Suite {
	quick := []Cell{
		{Model: "cnt_w4_t9", Shape: "bmc-dynamic"},
		{Model: "cnt_w4_t9", Shape: "bmc-incremental"},
		{Model: "cnt_w5_t13", Shape: "bmc-incremental"},
		{Model: "tlc_bug", Shape: "bmc-vsids"},
		{Model: "mix_w5", Shape: "bmc-dynamic"},
		{Model: "twin_w8", Shape: "kind-sequential", MaxDepth: 8},
		{Model: "twin_w8", Shape: "bmc-warm-shared", MaxDepth: 6},
		{Model: "twin_w8", Shape: "kind-warm", MaxDepth: 8},
	}
	full := append(append([]Cell{}, quick...),
		Cell{Model: "mix_w6", Shape: "bmc-incremental"},
		Cell{Model: "add_w8", Shape: "bmc-dynamic"},
		Cell{Model: "add_w8", Shape: "bmc-vsids"},
		Cell{Model: "lock_s8", Shape: "bmc-incremental"},
		Cell{Model: "fifo_c6_bug", Shape: "bmc-dynamic"},
		Cell{Model: "gcnt_m10", Shape: "bmc-warm-shared", MaxDepth: 8},
		Cell{Model: "twin_w10", Shape: "kind-warm", MaxDepth: 10},
		Cell{Model: "mix_w6", Shape: "bmc-warm-remote", MaxDepth: 8},
	)
	return []Suite{
		{Name: "smoke", Cells: []Cell{
			{Model: "tlc_bug", Shape: "bmc-dynamic"},
			{Model: "cnt_w4_t9", Shape: "bmc-incremental"},
		}},
		{Name: "quick", Cells: quick},
		{Name: "full", Cells: full},
	}
}

// SuiteNames lists the predefined suite names in order.
func SuiteNames() []string {
	var names []string
	for _, s := range Suites() {
		names = append(names, s.Name)
	}
	return names
}

// SuiteByName resolves a predefined suite.
func SuiteByName(name string) (Suite, bool) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}

// newArtifact stamps an artifact's envelope.
func newArtifact(suite string) *Artifact {
	return &Artifact{
		Schema:    SchemaVersion,
		Suite:     suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// Run executes every cell of the suite in order — each a 1×1 grid with
// its own registry, so one cell's racing never perturbs another's
// counters — and reduces the results to an artifact. Progress, when
// non-nil, is called with each finished cell.
func Run(ctx context.Context, suite Suite, progress func(CellResult)) (*Artifact, error) {
	art := newArtifact(suite.Name)
	for _, cell := range suite.Cells {
		m, ok := bench.ByName(cell.Model)
		if !ok {
			return nil, fmt.Errorf("cell %s/%s: unknown model (see internal/bench)", cell.Model, cell.Shape)
		}
		col, ok := ShapeByName(cell.Shape)
		if !ok {
			return nil, fmt.Errorf("cell %s/%s: unknown shape (valid: %s)",
				cell.Model, cell.Shape, strings.Join(shapeNames(), ", "))
		}
		col.MaxDepth, col.Conflicts = cell.MaxDepth, cell.Conflicts
		g, err := experiments.Config{Models: []bench.Model{m}}.Run(ctx, []experiments.Column{col})
		if err != nil {
			return nil, fmt.Errorf("cell %w", err)
		}
		cr := reduce(m.Name, col, g.Cells[0][0])
		art.Cells = append(art.Cells, cr)
		if progress != nil {
			progress(cr)
		}
	}
	return art, nil
}

// FromGrid reduces a finished experiment grid to the same artifact
// schema, one cell per (model, column), so tablegen -bench-json feeds
// every experiment through the same Compare/baseline machinery.
func FromGrid(suite string, g *experiments.Grid) *Artifact {
	art := newArtifact(suite)
	for i, m := range g.Models {
		for c, col := range g.Columns {
			art.Cells = append(art.Cells, reduce(m.Name, col, g.Cells[i][c]))
		}
	}
	return art
}

// reduce folds one engine result into its artifact row.
func reduce(model string, col experiments.Column, res *engine.Result) CellResult {
	st := res.Total
	if res.Engine == engine.KInduction {
		st.Add(res.BaseStats)
		st.Add(res.StepStats)
	}
	cr := CellResult{
		Model:         model,
		Shape:         col.Name,
		Deterministic: col.Deterministic,
		Verdict:       res.Verdict.String(),
		K:             res.K,
		Counters: map[string]int64{
			"conflicts":    st.Conflicts,
			"decisions":    st.Decisions,
			"propagations": st.Implications,
			"learned":      st.Learned,
			"restarts":     st.Restarts,
		},
		WallNanos: int64(res.TotalTime),
	}
	var encode, solve time.Duration
	for _, ds := range res.PerDepth {
		encode += ds.EncodeWall
		solve += ds.SolveWall
	}
	cr.EncodeWallNanos = int64(encode)
	cr.SolveWallNanos = int64(solve)
	if len(res.Strategies) > 0 {
		// Racing cells: the all-racer effort the winner-only counters
		// above cannot see.
		cr.Counters["spent_conflicts"] = experiments.SpentConflicts(res)
	}
	if res.Metrics != nil {
		// Per-link clause-bus traffic (warm shapes with the bus on):
		// nondeterministic volumes, recorded for trend lines.
		for name, v := range res.Metrics.Counters {
			if strings.HasPrefix(name, "bus_") {
				cr.Counters[name] = v
			}
		}
		cr.Memory = map[string]int64{
			"mem_heap_alloc":  res.HeapAllocBytes,
			"mem_total_alloc": res.TotalAllocBytes,
			"mem_gc_count":    res.GCCount,
		}
		// The clause-database gauges are per query/strategy series; their
		// sum is the pool-wide database footprint at rest.
		var learnt, bytesEst int64
		for name, v := range res.Metrics.Gauges {
			base := name
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			switch base {
			case "solver_clauses_learnt":
				learnt += v
			case "solver_clauses_bytes_est":
				bytesEst += v
			}
		}
		cr.Memory["solver_clauses_learnt"] = learnt
		cr.Memory["solver_clauses_bytes_est"] = bytesEst
	}
	return cr
}

// shapeNames lists the matrix's shape names in order.
func shapeNames() []string {
	var names []string
	for _, s := range Shapes() {
		names = append(names, s.Name)
	}
	return names
}
