package experiments

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sat"
)

// tinyCfg runs experiments on a few fast models at shallow depth so the
// whole package test stays seconds-scale.
func tinyCfg() Config {
	return Config{
		Models:               subset([]string{"twin_w8", "gcnt_m10", "cnt_w4_t9", "tlc_bug"}),
		DepthCap:             5,
		PerInstanceConflicts: 20000,
		PerModelBudget:       5 * time.Second,
	}
}

// runSmall fills the named registry experiment's grid under cfg and
// renders it as text.
func runSmall(t *testing.T, name string, cfg Config) (*Grid, string) {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("experiment %q not in the registry", name)
	}
	return runExperiment(t, e, cfg)
}

// fillOne fills one experiment's grid under cfg.
func fillOne(t *testing.T, e Experiment, cfg Config) *Grid {
	t.Helper()
	var g *Grid
	if err := RunAll(context.Background(), cfg, []Experiment{e}, func(_ Experiment, eg *Grid) { g = eg }); err != nil {
		t.Fatal(err)
	}
	return g
}

func runExperiment(t *testing.T, e Experiment, cfg Config) (*Grid, string) {
	t.Helper()
	g := fillOne(t, e, cfg)
	if len(g.Cells) != len(cfg.models()) {
		t.Fatalf("got %d rows, want %d", len(g.Cells), len(cfg.models()))
	}
	for i, row := range g.Cells {
		if len(row) != len(e.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(e.Columns))
		}
		for c, r := range row {
			if r == nil {
				t.Fatalf("%s/%s: cell left unsolved", g.Models[i].Name, e.Columns[c].Name)
			}
			if r.TotalTime <= 0 {
				t.Errorf("%s/%s: nonpositive wall time", g.Models[i].Name, e.Columns[c].Name)
			}
		}
	}
	if n := g.Disagreements(); n != 0 {
		t.Fatalf("%d verdict disagreements between columns", n)
	}
	var out strings.Builder
	e.Write(&out, g)
	return g, out.String()
}

// wantAll fails unless the rendered table contains every fragment.
func wantAll(t *testing.T, out string, fragments ...string) {
	t.Helper()
	for _, want := range fragments {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func decisions(r *engine.Result) int64 { return r.Total.Decisions }

func TestRunTable1Small(t *testing.T) {
	g, _ := runSmall(t, "table1", tinyCfg())
	// cnt_w4_t9 fails at depth 9 > cap 5, so here it should hold; tlc_bug
	// fails at depth 1 and must be an F row.
	wantTF := map[string]string{"tlc_bug": "F", "cnt_w4_t9": "(5)"}
	for i, row := range alignRows(g) {
		name := g.Models[i].Name
		for c := 0; c < numConfs; c++ {
			if g.Cells[i][c].Verdict == engine.Unknown {
				t.Errorf("%s/%s: budget exhausted in a tiny config", name, g.Columns[c].Name)
			}
			if row.Time[c] <= 0 {
				t.Errorf("%s/%s: nonpositive aligned time", name, g.Columns[c].Name)
			}
		}
		if want, ok := wantTF[name]; ok && row.TF != want {
			t.Errorf("%s: TF=%q, want %q", name, row.TF, want)
		}
	}
}

func TestTable1Render(t *testing.T) {
	g, tb := runSmall(t, "table1", tinyCfg())
	var csv, f6, f6csv strings.Builder
	writeTable1CSV(&csv, g)
	writeFigure6(&f6, g)
	writeFigure6CSV(&f6csv, g)

	wantAll(t, tb, "TOTAL", "RATIO", "RATIO (dec)", "wins vs baseline (decisions): ")
	if got := strings.Count(csv.String(), "\n"); got != 5 { // header + 4 rows
		t.Errorf("csv has %d lines, want 5", got)
	}
	wantAll(t, f6.String(), "pane: static vs bmc", "pane: dynamic vs bmc")

	// Each headline counts the rows whose aligned decisions beat the
	// baseline's, in the table's wins line and under each scatter pane.
	rows := alignRows(g)
	var below [numConfs]int
	for _, row := range rows {
		for c := range below {
			if row.Dec[c] < row.Dec[ConfBase] {
				below[c]++
			}
		}
	}
	n := len(rows)
	wantAll(t, tb, fmt.Sprintf("wins vs baseline (decisions): static %d/%d, dynamic %d/%d", below[ConfStatic], n, below[ConfDynamic], n))
	for _, c := range []int{ConfStatic, ConfDynamic} {
		wantAll(t, f6.String(), fmt.Sprintf("pane: %s vs bmc  (points below diagonal: refined ordering wins)\n  below the diagonal: ", g.Columns[c].Name),
			fmt.Sprintf(", %d/%d in aligned decisions", below[c], n))
	}
	if !strings.HasPrefix(f6csv.String(), "model,time_bmc_s") {
		t.Errorf("figure 6 csv header wrong: %q", f6csv.String()[:40])
	}
}

func TestRunFigure7Small(t *testing.T) {
	fig7, _ := ByName("fig7")
	e, err := fig7.Row("twin_w8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Models = nil // the view carries the row it was given
	g := fillOne(t, e, cfg)
	if len(g.Models) != 1 || g.Models[0].Name != "twin_w8" {
		t.Fatalf("ran %d models, want twin_w8 alone", len(g.Models))
	}
	base, ref := fig7Series(g)
	if len(base) == 0 || len(base) != len(ref) {
		t.Fatalf("series lengths inconsistent: %d base, %d ref", len(base), len(ref))
	}
	decBase, decRef := g.Total(0, decisions), g.Total(1, decisions)
	if decBase <= 0 || decRef <= 0 {
		t.Errorf("decision counts must be positive, got bmc=%d ref=%d", decBase, decRef)
	}
	if decRef >= decBase {
		t.Errorf("refined ordering should reduce decisions on twin_w8: %d vs %d", decRef, decBase)
	}
	var out, csv strings.Builder
	e.Write(&out, g)
	e.WriteCSV(&csv, g)
	wantAll(t, out.String(), "Number of Decisions")
	if !strings.HasPrefix(csv.String(), "k,dec_bmc") {
		t.Errorf("figure 7 csv header wrong")
	}
}

// TestRunFigure7UnknownModel: fig7's row must be a suite model.
func TestRunFigure7UnknownModel(t *testing.T) {
	fig7, _ := ByName("fig7")
	if _, err := fig7.Row("no_such_model"); err == nil || !strings.Contains(err.Error(), `"no_such_model"`) {
		t.Fatalf("unknown row: error %v, want one naming it", err)
	}
}

func TestRunObsOverheadSmall(t *testing.T) {
	g, out := runSmall(t, "obs-overhead", tinyCfg())
	for i, row := range g.Cells {
		// Instrumentation must not change the search.
		if off, on := decisions(row[0]), decisions(row[1]); off != on {
			t.Errorf("%s: instrumentation changed the search (%d vs %d decisions)", g.Models[i].Name, off, on)
		}
		// The instrumented run must actually have recorded something, or
		// the comparison is vacuous.
		if row[0].Metrics != nil || len(row[1].Metrics.Counters) == 0 {
			t.Errorf("%s: off/on columns are not bare/instrumented", g.Models[i].Name)
		}
	}
	wantAll(t, out, "aggregate conflicts-normalized overhead")

	// Spans land on the tracer, not in the result: one direct cell of the
	// same configuration shows the tracer half records too.
	tr := obs.NewTracer()
	col := Column{Name: "traced", Options: func() []engine.Option {
		return append(g.Columns[0].Options(), engine.WithTracer(tr))
	}}
	cfg := tinyCfg()
	cfg.Models = cfg.Models[:1]
	if _, err := cfg.Run(context.Background(), []Column{col}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Error("instrumented run recorded no spans")
	}
}

func TestRunScoreAblationSmall(t *testing.T) {
	g, out := runSmall(t, "ablation", tinyCfg())
	if len(g.Columns) != 4 {
		t.Fatalf("got %d score modes, want 4", len(g.Columns))
	}
	wantAll(t, out, "TOTAL", "weighted-sum", "exp-decay")
}

func TestRunThresholdSweepSmall(t *testing.T) {
	g, out := runSmall(t, "threshold", tinyCfg())
	if len(g.Columns) != 4 {
		t.Fatalf("columns: %v", g.Columns)
	}
	wantAll(t, out, "lits/16", "lits/64", "lits/256", "never(static)")
}

func TestRunTimeAxisSmall(t *testing.T) {
	_, out := runSmall(t, "timeaxis", tinyCfg())
	wantAll(t, out, "timeaxis")
}

// TestRunCDGMemorySmall: the §3.1 table's three solves of an instance —
// recorder off, simplified CDG, complete CDG — make identical decisions
// (recording must not change the search), the complete CDG outweighs the
// simplified one, and the table reports the time overhead and certified
// proofs.
func TestRunCDGMemorySmall(t *testing.T) {
	res, err := RunCDGMemory(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no row: every instance was refuted by BCP alone")
	}
	for _, row := range res.Rows {
		if d := row.Decisions; d[0] != d[1] || d[1] != d[2] {
			t.Errorf("%s: recording changed the search (%d off, %d simplified, %d complete decisions)",
				row.Name, d[0], d[1], d[2])
		}
		if row.Off <= 0 || row.Simplified <= 0 {
			t.Errorf("%s: nonpositive solve time (off %v, simplified %v)", row.Name, row.Off, row.Simplified)
		}
		if row.FullBytes <= row.SimplifiedBytes {
			t.Errorf("%s: complete CDG (%dB) should outweigh simplified (%dB)",
				row.Name, row.FullBytes, row.SimplifiedBytes)
		}
	}
	var out strings.Builder
	res.Write(&out)
	wantAll(t, out.String(), "aggregate overhead", "certified by RUP")
}

func TestAblationSubsetsResolve(t *testing.T) {
	if n := len(AblationModels()); n < 8 {
		t.Errorf("ablation subset too small: %d", n)
	}
	if n := len(OverheadModels()); n < 6 {
		t.Errorf("overhead subset too small: %d", n)
	}
}

func TestAlignRowCommonDepth(t *testing.T) {
	mk := func(completed int, wallMS ...int) *engine.Result {
		r := &engine.Result{Verdict: engine.Holds, K: completed}
		for k, ms := range wallMS {
			st := sat.Unsat
			if k > completed {
				st = sat.Unknown
			}
			r.PerDepth = append(r.PerDepth, engine.DepthStats{
				K:      k,
				Status: st,
				Wall:   time.Duration(ms) * time.Millisecond,
				Stats:  sat.Stats{Decisions: int64(10 * (k + 1))},
			})
		}
		if completed < len(wallMS)-1 {
			r.Verdict = engine.Unknown
		}
		return r
	}
	// Baseline completed depths 0..1 (died inside depth 2); refined runs
	// completed all three depths.
	runs := [numConfs]*engine.Result{
		mk(1, 10, 20, 999),
		mk(2, 5, 5, 5),
		mk(2, 6, 6, 6),
	}
	row := alignRow(runs)
	if row.TF != "(1)" || row.Depth != 1 {
		t.Fatalf("TF=%q depth=%d, want (1)", row.TF, row.Depth)
	}
	if row.Time[ConfBase] != 30*time.Millisecond {
		t.Errorf("base aligned time = %v, want 30ms", row.Time[ConfBase])
	}
	if row.Time[ConfStatic] != 10*time.Millisecond || row.Time[ConfDynamic] != 12*time.Millisecond {
		t.Errorf("refined aligned times = %v %v", row.Time[ConfStatic], row.Time[ConfDynamic])
	}
	if row.Dec[ConfBase] != 30 { // 10 + 20
		t.Errorf("aligned decisions = %d, want 30", row.Dec[ConfBase])
	}
}

func TestAlignRowAllFalsified(t *testing.T) {
	mk := func(total time.Duration) *engine.Result {
		return &engine.Result{
			Verdict:   engine.Falsified,
			K:         3,
			TotalTime: total,
			PerDepth: []engine.DepthStats{
				{K: 0, Status: sat.Unsat, Wall: time.Millisecond},
				{K: 1, Status: sat.Unsat, Wall: time.Millisecond},
				{K: 2, Status: sat.Unsat, Wall: time.Millisecond},
				{K: 3, Status: sat.Sat, Wall: time.Millisecond},
			},
			Total: sat.Stats{Decisions: 77},
		}
	}
	runs := [numConfs]*engine.Result{mk(40 * time.Millisecond), mk(20 * time.Millisecond), mk(30 * time.Millisecond)}
	row := alignRow(runs)
	if row.TF != "F" {
		t.Fatalf("TF=%q, want F", row.TF)
	}
	if row.Time[ConfBase] != 40*time.Millisecond || row.Dec[ConfBase] != 77 {
		t.Errorf("falsified rows must use whole-run totals")
	}
}

func TestScatterASCIISmoke(t *testing.T) {
	var out strings.Builder
	scatterASCII(&out, []float64{0.1, 1, 10}, []float64{0.05, 2, 5}, 40, 10)
	s := out.String()
	if !strings.Contains(s, "o") || !strings.Contains(s, ".") {
		t.Errorf("scatter missing points or diagonal:\n%s", s)
	}
	// Degenerate inputs must not panic.
	scatterASCII(&out, nil, nil, 10, 5)
	scatterASCII(&out, []float64{1, 1}, []float64{1, 1}, 10, 5)
	scatterASCII(&out, []float64{0}, []float64{0}, 10, 5)
}

func TestSeriesASCIISmoke(t *testing.T) {
	var out strings.Builder
	series := func(decisions ...int64) []engine.DepthStats {
		var ds []engine.DepthStats
		for k, d := range decisions {
			ds = append(ds, engine.DepthStats{K: k, Stats: sat.Stats{Decisions: d}})
		}
		return ds
	}
	dec := func(s sat.Stats) int64 { return s.Decisions }
	seriesASCII(&out, "chart", series(1, 100, 10000), series(1, 10, 100), dec, 8)
	s := out.String()
	if !strings.Contains(s, "#") || !strings.Contains(s, "o") {
		t.Errorf("series missing glyphs:\n%s", s)
	}
	seriesASCII(&out, "empty", nil, nil, dec, 8)
	seriesASCII(&out, "flat", series(5), series(5), dec, 8)
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDuration(1500 * time.Millisecond); got != "1.500" {
		t.Errorf("fmtDuration = %q", got)
	}
	if got := ratio(2*time.Second, time.Second); got != "50%" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(0, time.Second); got != "-" {
		t.Errorf("ratio(0) = %q", got)
	}
	if got := ratio[int64](400, 300); got != "75%" {
		t.Errorf("ratio of counts = %q", got)
	}
}

func TestRunPortfolioAblationSmall(t *testing.T) {
	g, out := runSmall(t, "portfolio", tinyCfg())
	last := len(g.Columns) - 1
	for i, row := range g.Cells {
		wins := 0
		for _, n := range row[last].Telemetry.Wins {
			wins += n
		}
		if wins == 0 {
			t.Errorf("%s: portfolio recorded no winning races", g.Models[i].Name)
		}
	}
	wantAll(t, out, "portfolio", "TOTAL", "vsids")
}

func TestRunIncrementalAblationSmall(t *testing.T) {
	g, out := runSmall(t, "incremental", tinyCfg())
	wantAll(t, out, "Incremental vs scratch", "TOTAL", "conflicts saved", "incremental wins: ", "MB.scr", "MB.incr")
	if strings.Contains(out, "wins: 0/0") {
		t.Fatalf("tiny config must contain UNSAT-heavy rows:\n%s", out)
	}
	// The footprint cells are the last depth's solver plus recorder bytes.
	for i, m := range g.Models {
		for c := range g.Columns {
			d := g.Cells[i][c].PerDepth
			last := d[len(d)-1]
			if last.SolverBytes <= 0 {
				t.Errorf("%s/%s: last depth holds no solver bytes", m.Name, g.Columns[c].Name)
			}
			mb := fmt.Sprintf(" %.2f ", float64(last.SolverBytes+last.RecorderBytes)/(1<<20))
			if !strings.Contains(out, mb) {
				t.Errorf("%s/%s: footprint %q not in the table", m.Name, g.Columns[c].Name, mb)
			}
		}
	}
}

func TestRunWarmAblationSmall(t *testing.T) {
	g, out := runSmall(t, "warm", tinyCfg())
	for i, row := range g.Cells {
		for c, r := range row {
			if r.Telemetry == nil || spentConflicts(r) < Conflicts(r) {
				t.Errorf("%s/%s: all-racer conflicts %d below the winners' %d",
					g.Models[i].Name, g.Columns[c].Name, spentConflicts(r), Conflicts(r))
			}
		}
	}
	wantAll(t, out, "Warm racer pool", "TOTAL", "total conflicts vs cold", "UNSAT-heavy rows where warm spends")
}

func TestRunWarmKindAblationSmall(t *testing.T) {
	cfg := tinyCfg()
	cfg.Models = subset([]string{"twin_w8", "gcnt_m10", "tlc_bug"})
	g, out := runSmall(t, "warm-kind", cfg)
	for i, row := range g.Cells {
		for c, r := range row {
			if r.Engine != engine.KInduction || r.Verdict == engine.Unknown {
				t.Errorf("%s/%s: %v run undecided within the tiny budget", g.Models[i].Name, g.Columns[c].Name, r.Engine)
			}
		}
	}
	wantAll(t, out, "Warm k-induction", "TOTAL", "rows where warm spends", "proved@")
}

// TestWarmKindConflictCap: warm-kind's columns cap each SAT call at
// 3000 conflicts, tightening the Config's budget and never loosening it.
func TestWarmKindConflictCap(t *testing.T) {
	e, _ := ByName("warm-kind")
	for _, budget := range []int64{0, 50000, 1000} {
		want := min(budget, 3000)
		if budget == 0 {
			want = 3000
		}
		for _, c := range e.Columns {
			opts := append([]engine.Option{engine.WithBudgets(6, budget)}, c.Options()...)
			if got := engine.NewConfig(opts...).PerInstanceConflicts; got != want {
				t.Errorf("%s under budget %d: cap %d, want %d", c.Name, budget, got, want)
			}
		}
	}
}

func TestKindAblationModelsResolve(t *testing.T) {
	models := KindAblationModels()
	if len(models) < 6 {
		t.Fatalf("kind ablation set too small: %d models", len(models))
	}
	seen := map[string]bool{}
	for _, m := range models {
		if seen[m.Name] {
			t.Errorf("duplicate model %s", m.Name)
		}
		seen[m.Name] = true
		if m.Build == nil || m.Build() == nil {
			t.Errorf("%s: nil build", m.Name)
		}
	}
}

// configOf is what a column's options make of a zero engine.Config, with
// a zero switch divisor read as the paper's and the observability sinks,
// fresh per run, reduced to whether they are set.
func configOf(c Column) any {
	var cfg engine.Config
	for _, o := range c.Options() {
		o(&cfg)
	}
	if cfg.SwitchDivisor == 0 {
		cfg.SwitchDivisor = core.SwitchDivisor
	}
	metrics, tracer := cfg.Metrics != nil, cfg.Tracer != nil
	cfg.Metrics, cfg.Tracer = nil, nil
	return struct {
		engine.Config
		metrics, tracer bool
	}{cfg, metrics, tracer}
}

// TestRegistryWellFormed pins what every front end assumes of the
// registry: unique experiment names, unique non-empty column names, a
// text renderer, and default model sets that resolve to buildable models.
// A column name is one configuration wherever it is read, and two names
// are two configurations: the fill solves a (model, name) cell once for
// every experiment that reads it, so a name that meant two configurations
// would hand one of them the other's cells, and a configuration under two
// names would be solved twice.
func TestRegistryWellFormed(t *testing.T) {
	names := map[string]bool{}
	configs := map[string]any{}
	for _, e := range All() {
		if e.Name == "" || names[e.Name] {
			t.Errorf("experiment name %q empty or duplicated", e.Name)
		}
		names[e.Name] = true
		if e.Write == nil {
			t.Errorf("%s: no text renderer", e.Name)
		}
		if len(e.Columns) == 0 {
			t.Errorf("%s: no columns", e.Name)
		}
		cols := map[string]bool{}
		for _, c := range e.Columns {
			if c.Name == "" || cols[c.Name] {
				t.Errorf("%s: column name %q empty or duplicated", e.Name, c.Name)
			}
			cols[c.Name] = true
			if c.Options == nil {
				t.Errorf("%s/%s: no options", e.Name, c.Name)
				continue
			}
			cfg := configOf(c)
			if !reflect.DeepEqual(cfg, configOf(c)) {
				t.Errorf("%s/%s: two runs of the column differ in configuration", e.Name, c.Name)
			}
			if seen, ok := configs[c.Name]; ok && !reflect.DeepEqual(cfg, seen) {
				t.Errorf("%s/%s: the name means another configuration elsewhere in the registry", e.Name, c.Name)
			}
			configs[c.Name] = cfg
		}
		models := map[string]bool{}
		for _, m := range (Config{Models: e.Models}).models() {
			if models[m.Name] || m.Build == nil || m.Build() == nil || m.MaxDepth <= 0 {
				t.Errorf("%s: model %q duplicated or unbuildable", e.Name, m.Name)
			}
			models[m.Name] = true
		}
		if got, ok := ByName(e.Name); !ok || got.Name != e.Name {
			t.Errorf("ByName(%q) does not resolve", e.Name)
		}
	}
	if _, ok := ByName("cdgmemory"); ok {
		t.Error("cdgmemory is not a grid and must stay out of the registry")
	}
	var all []string
	for name := range configs {
		all = append(all, name)
	}
	slices.Sort(all)
	for i, a := range all {
		for _, b := range all[i+1:] {
			if reflect.DeepEqual(configs[a], configs[b]) {
				t.Errorf("columns %q and %q are one configuration under two names", a, b)
			}
		}
	}
}

// TestGridAgreed pins the one cross-run agreement rule on hand-built
// results.
func TestGridAgreed(t *testing.T) {
	r := func(v engine.Verdict, k int) *engine.Result { return &engine.Result{Verdict: v, K: k} }
	g := &Grid{Cells: [][]*engine.Result{
		{r(engine.Holds, 5), r(engine.Holds, 5), r(engine.Holds, 5)},             // agree
		{r(engine.Holds, 5), r(engine.Falsified, 5), r(engine.Holds, 5)},         // verdict mismatch
		{r(engine.Falsified, 3), r(engine.Falsified, 3), r(engine.Falsified, 4)}, // K mismatch
		{r(engine.Unknown, 2), r(engine.Falsified, 7), r(engine.Falsified, 7)},   // Unknown cell excluded
		{r(engine.Falsified, 7), r(engine.Unknown, 2), r(engine.Falsified, 8)},   // ... but not the rest
		{r(engine.Unknown, 1), r(engine.Unknown, 2), r(engine.Unknown, 3)},       // nothing to disagree on
	}}
	for i, want := range []bool{true, false, false, true, false, true} {
		if got := g.Agreed(i); got != want {
			t.Errorf("row %d: Agreed = %v, want %v", i, got, want)
		}
	}
	if n := g.Disagreements(); n != 3 {
		t.Errorf("Disagreements = %d, want 3", n)
	}
}

// TestGridKeepsFastestRepeat pins the one repeat rule: a fast row is run
// Repeats times and every cell keeps its fastest run — neither the first
// nor the last — while a row whose first column is slow runs once.
func TestGridKeepsFastestRepeat(t *testing.T) {
	// delayed is a column whose n-th run stalls delays[n] inside the check
	// (progress events are delivered synchronously from the depth loop).
	delayed := func(runs *int, delays ...time.Duration) Column {
		return Column{Name: "delayed", Options: func() []engine.Option {
			delay := delays[min(*runs, len(delays)-1)]
			*runs++
			return []engine.Option{engine.WithProgress(func(e engine.Event) {
				if e.Kind == engine.DepthStarted && e.K == 0 {
					time.Sleep(delay)
				}
			})}
		}}
	}
	cfg := tinyCfg()
	cfg.Models = subset([]string{"tlc_bug"})
	cfg.Repeats = 3

	const stall = 100 * time.Millisecond
	var runs int
	g, err := cfg.Run(context.Background(), []Column{delayed(&runs, stall, 0, stall)})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("fast row ran %d times, want %d", runs, cfg.Repeats)
	}
	if got := g.Cells[0][0].TotalTime; got >= stall {
		t.Errorf("kept run took %v: not the fastest of the three", got)
	}

	runs = 0
	if _, err := cfg.Run(context.Background(), []Column{delayed(&runs, repeatBelow)}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("slow row ran %d times, want 1", runs)
	}
}

// TestRefineDeterministic: the exact-count headlines — refine's conflicts,
// Table 1's decisions — rest on single-strategy searches being
// reproducible: two fills of the five experiments that read the paper's
// comparison (table1, fig6, fig7, incremental and refine, over vsids,
// static and dynamic from scratch and vsids and dynamic incremental) on 3
// models must agree on every count. The fill has no wall-clock budget: a
// cell cut short by one on a loaded machine would differ by when it was
// cut, and the conflict cap and depth cap already bound every cell.
func TestRefineDeterministic(t *testing.T) {
	cfg := tinyCfg()
	cfg.Models = subset([]string{"mix_w5", "add_w4", "cnt_w4_t9"})
	cfg.PerModelBudget = 0
	var exps []Experiment
	for _, name := range []string{"table1", "fig6", "fig7", "incremental", "refine"} {
		e, _ := ByName(name)
		exps = append(exps, e)
	}
	fill := func() (map[string]*Grid, map[string]string) {
		grids, outs := map[string]*Grid{}, map[string]string{}
		err := RunAll(context.Background(), cfg, exps, func(e Experiment, g *Grid) {
			var out strings.Builder
			e.Write(&out, g)
			grids[e.Name], outs[e.Name] = g, out.String()
		})
		if err != nil {
			t.Fatal(err)
		}
		return grids, outs
	}
	a, outs := fill()
	b, _ := fill()
	for name, g := range a {
		if n := g.Disagreements(); n != 0 {
			t.Fatalf("%s: %d verdict disagreements between its columns", name, n)
		}
		for i, row := range g.Cells {
			for c, r := range row {
				other := b[name].Cells[i][c]
				x, y := r.Total, other.Total
				x.SolveTime, y.SolveTime = 0, 0 // the one field that is a clock, not a count
				if x != y || r.Verdict != other.Verdict || r.K != other.K {
					t.Errorf("%s: %s/%s differs across runs: %+v vs %+v", name, g.Models[i].Name, g.Columns[c].Name, x, y)
				}
			}
		}
	}
	refine := a["refine"] // vsids, dynamic, vsids-incr, dynamic-incr
	if refine.Total(0, Conflicts) == 0 {
		t.Error("the fill spent no conflicts under vsids: the comparison is vacuous")
	}
	out := outs["refine"]
	wantAll(t, out, "TOTAL", "rows where refinement spends fewer conflicts", "x", " switch ")

	// Each dynamic column's switch cell is "-" when the switch fired at no
	// depth, else one of the decision counts at which it fired.
	fired := 0
	for i, m := range refine.Models {
		var fields []string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == m.Name {
				fields = f
			}
		}
		if len(fields) != 10 {
			t.Fatalf("%s: row %q, want 10 columns", m.Name, fields)
		}
		for l, c := range []int{1, 3} {
			at := map[string]bool{}
			for _, d := range refine.Cells[i][c].PerDepth {
				if d.Stats.GuidanceSwitched {
					at[strconv.FormatInt(d.Stats.SwitchDecision, 10)] = true
				}
			}
			got := fields[4+4*l]
			switch {
			case len(at) == 0 && got != "-":
				t.Errorf("%s/%s: switch column %q, but the switch never fired", m.Name, refine.Columns[c].Name, got)
			case len(at) > 0 && !at[got]:
				t.Errorf("%s/%s: switch column %q, not a decision count it fired at (%v)", m.Name, refine.Columns[c].Name, got, at)
			}
			if len(at) > 0 {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Error("the dynamic switch fired on no row: the switch column is vacuous")
	}
}

// TestViewsSolveEachCellOnce counts the sessions a fill builds, per model
// and column, with Repeats 0 and the experiments' own rows: rendering the
// whole registry from one fill builds one per distinct (model, column) —
// 293 — and each experiment alone builds exactly its rows under its
// columns.
func TestViewsSolveEachCellOnce(t *testing.T) {
	cfg := Config{DepthCap: 1, PerInstanceConflicts: 1000}
	// A session asks its model for the circuit and its column for the
	// options, once each and next to each other: log both, and read the
	// log in pairs.
	var log []string
	counted := func(e Experiment) Experiment {
		models := Config{Models: e.Models}.models()
		e.Models = make([]bench.Model, len(models))
		for i, m := range models {
			build := m.Build
			m.Build = func() *circuit.Circuit {
				log = append(log, "model "+m.Name)
				return build()
			}
			e.Models[i] = m
		}
		e.Columns = slices.Clone(e.Columns)
		for c, col := range e.Columns {
			e.Columns[c].Options = func() []engine.Option {
				log = append(log, "column "+col.Name)
				return col.Options()
			}
		}
		return e
	}
	type cell struct{ model, column string }
	sessions := func(exps ...Experiment) map[cell]int {
		log = nil
		if err := RunAll(context.Background(), cfg, exps, func(Experiment, *Grid) {}); err != nil {
			t.Fatal(err)
		}
		if len(log)%2 != 0 {
			t.Fatalf("log of %d entries does not pair up", len(log))
		}
		n := map[cell]int{}
		for i := 0; i < len(log); i += 2 {
			pair := []string{log[i], log[i+1]}
			slices.Sort(pair) // "column ..." before "model ..."
			column, cok := strings.CutPrefix(pair[0], "column ")
			model, mok := strings.CutPrefix(pair[1], "model ")
			if !cok || !mok {
				t.Fatalf("log entries %d-%d are not one model and one column: %q", i, i+1, pair)
			}
			n[cell{model, column}]++
		}
		return n
	}
	cells := func(models []bench.Model, columns ...string) map[cell]int {
		want := map[cell]int{}
		for _, m := range models {
			for _, c := range columns {
				want[cell{m.Name, c}] = 1
			}
		}
		return want
	}

	// offBy lists (up to five of) the cells built a wrong number of times.
	offBy := func(got, want map[cell]int) string {
		var off []string
		for c := range want {
			got[c] += 0 // every wanted cell is compared, built or not
		}
		for c, n := range got {
			if n != want[c] {
				off = append(off, fmt.Sprintf("%s/%s %d times, want %d", c.model, c.column, n, want[c]))
			}
		}
		slices.Sort(off)
		if len(off) == 0 {
			return ""
		}
		return fmt.Sprintf("%d cells off: %s", len(off), strings.Join(off[:min(len(off), 5)], "; "))
	}

	var exps []Experiment
	union := map[cell]int{}
	own := map[string]map[cell]int{}
	for _, e := range All() {
		var names []string
		for _, c := range e.Columns {
			names = append(names, c.Name)
		}
		own[e.Name] = cells(Config{Models: e.Models}.models(), names...)
		maps.Copy(union, own[e.Name])
		exps = append(exps, counted(e))
	}
	if len(union) != 293 {
		t.Errorf("the registry reads %d distinct cells, want 293", len(union))
	}
	if off := offBy(sessions(exps...), union); off != "" {
		t.Errorf("one fill for the whole registry, want each distinct cell once: %s", off)
	}
	for _, e := range exps {
		if off := offBy(sessions(e), own[e.Name]); off != "" {
			t.Errorf("%s alone: %s", e.Name, off)
		}
	}
}
