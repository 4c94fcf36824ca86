package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

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

func runExperiment(t *testing.T, e Experiment, cfg Config) (*Grid, string) {
	t.Helper()
	g, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != len(cfg.models()) {
		t.Fatalf("got %d rows, want %d", len(g.Cells), len(cfg.models()))
	}
	for i, row := range g.Cells {
		if len(row) != len(e.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(e.Columns))
		}
		for c, r := range row {
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
				t.Errorf("%s/%s: budget exhausted in a tiny config", name, ConfNames[c])
			}
			if row.Time[c] <= 0 {
				t.Errorf("%s/%s: nonpositive aligned time", name, ConfNames[c])
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

	wantAll(t, tb, "TOTAL", "RATIO")
	if got := strings.Count(csv.String(), "\n"); got != 5 { // header + 4 rows
		t.Errorf("csv has %d lines, want 5", got)
	}
	wantAll(t, f6.String(), "pane: static vs bmc", "pane: dynamic vs bmc")
	if !strings.HasPrefix(f6csv.String(), "model,time_bmc_s") {
		t.Errorf("figure 6 csv header wrong: %q", f6csv.String()[:40])
	}
}

func TestRunFigure7Small(t *testing.T) {
	e, err := Figure7("twin_w8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Models = nil // the experiment carries the model it was built for
	g, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunFigure7UnknownModel(t *testing.T) {
	if _, err := Figure7("no_such_model"); err == nil {
		t.Fatal("expected an error for an unknown model")
	}
}

func TestRunOverheadSmall(t *testing.T) {
	g, out := runSmall(t, "overhead", tinyCfg())
	for i, row := range g.Cells {
		// The §3.1 design point: recording must not change the search.
		if off, on := decisions(row[0]), decisions(row[1]); off != on {
			t.Errorf("%s: recording changed the search (%d vs %d decisions)", g.Models[i].Name, off, on)
		}
	}
	wantAll(t, out, "aggregate overhead")
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
	g, out := runExperiment(t, ThresholdSweep(16, 64, 0), tinyCfg())
	if len(g.Columns) != 3 {
		t.Fatalf("columns: %v", g.Columns)
	}
	wantAll(t, out, "lits/16", "never(static)")
}

func TestRunTimeAxisSmall(t *testing.T) {
	_, out := runSmall(t, "timeaxis", tinyCfg())
	wantAll(t, out, "timeaxis")
}

func TestRunCDGMemorySmall(t *testing.T) {
	res, err := RunCDGMemory(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.FullBytes <= row.SimplifiedBytes {
			t.Errorf("%s: complete CDG (%dB) should outweigh simplified (%dB)",
				row.Name, row.FullBytes, row.SimplifiedBytes)
		}
	}
	var out strings.Builder
	res.Write(&out)
	if !strings.Contains(out.String(), "certified by RUP") {
		t.Errorf("memory table does not say its proofs are certified")
	}
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
	scatterASCII(&out, "pane", []float64{0.1, 1, 10}, []float64{0.05, 2, 5}, 40, 10)
	s := out.String()
	if !strings.Contains(s, "o") || !strings.Contains(s, ".") {
		t.Errorf("scatter missing points or diagonal:\n%s", s)
	}
	// Degenerate inputs must not panic.
	scatterASCII(&out, "empty", nil, nil, 10, 5)
	scatterASCII(&out, "flat", []float64{1, 1}, []float64{1, 1}, 10, 5)
	scatterASCII(&out, "zero", []float64{0}, []float64{0}, 10, 5)
}

func TestSeriesASCIISmoke(t *testing.T) {
	var out strings.Builder
	seriesASCII(&out, "chart", []int{0, 1, 2}, []int64{1, 100, 10000}, []int64{1, 10, 100}, "a", "b", 8)
	s := out.String()
	if !strings.Contains(s, "#") || !strings.Contains(s, "o") {
		t.Errorf("series missing glyphs:\n%s", s)
	}
	seriesASCII(&out, "empty", nil, nil, nil, "a", "b", 8)
	seriesASCII(&out, "flat", []int{0}, []int64{5}, []int64{5}, "a", "b", 8)
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
	_, out := runSmall(t, "incremental", tinyCfg())
	wantAll(t, out, "Incremental vs scratch", "TOTAL", "conflicts saved", "incremental wins: ")
	if strings.Contains(out, "wins: 0/0") {
		t.Fatalf("tiny config must contain UNSAT-heavy rows:\n%s", out)
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

// TestRegistryWellFormed pins what every front end assumes of the
// registry: unique experiment names, unique non-empty column names, a
// text renderer, and default model sets that resolve to buildable models.
func TestRegistryWellFormed(t *testing.T) {
	names := map[string]bool{}
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
			}
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

// TestRefineDeterministic: the refine table's claim to exact units rests
// on single-strategy searches being reproducible — two runs of a 3-model
// grid must agree on every count, under both solver lifetimes.
func TestRefineDeterministic(t *testing.T) {
	cfg := tinyCfg()
	cfg.Models = subset([]string{"mix_w5", "add_w4", "cnt_w4_t9"})
	a, out := runSmall(t, "refine", cfg)
	b, _ := runSmall(t, "refine", cfg)
	for i, row := range a.Cells {
		for c, r := range row {
			other := b.Cells[i][c]
			x, y := r.Total, other.Total
			x.SolveTime, y.SolveTime = 0, 0 // the one field that is a clock, not a count
			if x != y || r.Verdict != other.Verdict || r.K != other.K {
				t.Errorf("%s/%s differs across runs: %+v vs %+v", a.Models[i].Name, a.Columns[c].Name, x, y)
			}
		}
	}
	if a.Total(0, Conflicts) == 0 {
		t.Error("refine grid spent no conflicts: the comparison is vacuous")
	}
	wantAll(t, out, "TOTAL", "rows where refinement spends fewer conflicts", "x", " switch ")

	// Each dynamic column's switch cell is "-" when the switch fired at no
	// depth, else one of the decision counts at which it fired.
	fired := 0
	for i, m := range a.Models {
		var fields []string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == m.Name {
				fields = f
			}
		}
		if len(fields) != 10 {
			t.Fatalf("%s: row %q, want 10 columns", m.Name, fields)
		}
		for _, c := range []int{1, 3} {
			at := map[string]bool{}
			for _, d := range a.Cells[i][c].PerDepth {
				if d.Stats.GuidanceSwitched {
					at[strconv.FormatInt(d.Stats.SwitchDecision, 10)] = true
				}
			}
			got := fields[4+4*(c/2)]
			switch {
			case len(at) == 0 && got != "-":
				t.Errorf("%s/%s: switch column %q, but the switch never fired", m.Name, a.Columns[c].Name, got)
			case len(at) > 0 && !at[got]:
				t.Errorf("%s/%s: switch column %q, not a decision count it fired at (%v)", m.Name, a.Columns[c].Name, got, at)
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
