package engine_test

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// checkModel runs one session on a suite model and fails the test on a
// structural error.
func checkModel(t *testing.T, m bench.Model, opts ...engine.Option) *engine.Result {
	t.Helper()
	sess, err := engine.New(m.Build(), 0, opts...)
	if err != nil {
		t.Fatalf("%s: New: %v", m.Name, err)
	}
	res, err := sess.Check(context.Background())
	if err != nil {
		t.Fatalf("%s: Check: %v", m.Name, err)
	}
	return res
}

// TestSessionEquivalenceSuite: on every internal/bench family, all four
// BMC session configurations (scratch, incremental, cold portfolio, warm
// portfolio) return the identical verdict, depth, and counter-example
// trace, and failing rows fail at their ground-truth depth.
func TestSessionEquivalenceSuite(t *testing.T) {
	for _, m := range bench.Suite() {
		depth := m.MaxDepth
		if !m.ExpectFail && depth > 4 {
			depth = 4
		}
		if testing.Short() && m.ExpectFail && depth > 10 {
			depth = 10
		}
		base := []engine.Option{engine.WithBudgets(depth, 0)}
		ref := checkModel(t, m, base...)

		configs := []struct {
			name string
			opts []engine.Option
		}{
			{"incremental", append([]engine.Option{engine.WithIncremental()}, base...)},
			{"portfolio", append([]engine.Option{engine.WithPortfolio(nil, 0)}, base...)},
			{"warm", append([]engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}, base...)},
		}
		for _, cfg := range configs {
			res := checkModel(t, m, cfg.opts...)
			if res.Verdict != ref.Verdict || res.K != ref.K {
				t.Errorf("%s/%s: (%v@%d) disagrees with scratch session (%v@%d)",
					m.Name, cfg.name, res.Verdict, res.K, ref.Verdict, ref.K)
			}
			if ref.Verdict == engine.Falsified {
				if res.Trace == nil || res.Trace.Depth != ref.Trace.Depth {
					t.Errorf("%s/%s: counter-example trace missing or wrong depth", m.Name, cfg.name)
				}
			}
		}
		if m.ExpectFail && !testing.Short() && ref.Verdict == engine.Falsified && ref.K != m.FailDepth {
			t.Errorf("%s: counter-example at depth %d, ground truth %d", m.Name, ref.K, m.FailDepth)
		}
	}
}

// TestSessionTightBudgetEquivalence: with a 1-conflict budget every
// configuration must agree on the verdict — and, when the run decides,
// on its depth. The depth at which an Unknown budget bites is engine
// state-dependent (a warm solver's carried clauses change per-depth
// effort), so only decided outcomes pin K.
func TestSessionTightBudgetEquivalence(t *testing.T) {
	for _, name := range []string{"add_w8", "cnt_w4_t9", "twin_w8"} {
		m, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("model %s missing", name)
		}
		base := []engine.Option{engine.WithBudgets(6, 1)}
		ref := checkModel(t, m, base...)
		for _, cfg := range []struct {
			name string
			opts []engine.Option
		}{
			{"incremental", append([]engine.Option{engine.WithIncremental()}, base...)},
			{"portfolio", append([]engine.Option{engine.WithPortfolio(nil, 0)}, base...)},
			{"warm", append([]engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}, base...)},
		} {
			res := checkModel(t, m, cfg.opts...)
			if res.Verdict != ref.Verdict {
				t.Errorf("%s/%s: tight budget verdict %v disagrees with scratch %v",
					name, cfg.name, res.Verdict, ref.Verdict)
			}
			if ref.Verdict != engine.Unknown && res.K != ref.K {
				t.Errorf("%s/%s: decided at depth %d, scratch at %d", name, cfg.name, res.K, ref.K)
			}
		}
	}
}

// TestKindSessionEquivalence: the k-induction configurations agree on
// status and K across the proved / deeper-k / falsified regimes.
func TestKindSessionEquivalence(t *testing.T) {
	models := []struct {
		name  string
		build bench.Model
		maxK  int
	}{
		{"twin", bench.Model{Name: "twin", Build: func() *circuit.Circuit { return bench.Twin(6, 0, 0) }}, 4},
		{"gcnt_offset", bench.Model{Name: "gcnt_offset", Build: func() *circuit.Circuit { return bench.OffsetCounter(4, 10, 12) }}, 8},
		{"tlc_bug", bench.Model{Name: "tlc_bug", Build: func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) }}, 4},
	}
	for _, tc := range models {
		kind := []engine.Option{engine.WithEngine(engine.KInduction), engine.WithBudgets(tc.maxK, 0)}
		ref := checkModel(t, tc.build, kind...)

		for _, cfg := range []struct {
			name string
			opts []engine.Option
		}{
			{"portfolio", append([]engine.Option{engine.WithPortfolio(nil, 0)}, kind...)},
			{"warm", append([]engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}, kind...)},
			{"warm-single", append([]engine.Option{engine.WithIncremental()}, kind...)},
		} {
			res := checkModel(t, tc.build, cfg.opts...)
			if res.Verdict != ref.Verdict || res.K != ref.K {
				t.Errorf("%s/%s: (%v@%d) disagrees with sequential session (%v@%d)",
					tc.name, cfg.name, res.Verdict, res.K, ref.Verdict, ref.K)
			}
		}
	}
}

// countingExecutor wraps LocalExecutor and counts what flows through the
// seam. The counters are atomic: the k-induction queries race side by
// side.
type countingExecutor struct {
	engine.LocalExecutor
	races, liveRaces, payloads atomic.Int64
}

func (e *countingExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	e.races.Add(1)
	return e.LocalExecutor.Race(q, f, attempts, jobs, stop)
}

func (e *countingExecutor) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	e.liveRaces.Add(1)
	return e.LocalExecutor.RaceLive(q, attempts, assumps, jobs, stop)
}

func (e *countingExecutor) OnClausePayload(engine.Query, int, string, []cnf.Clause) {
	e.payloads.Add(1)
}

// TestExecutorSeam: every race of a session — cold and warm, a portfolio
// or a single ordering — is submitted through the configured Executor,
// one race per depth and query, and OnClausePayload, which only the frozen
// benchmark still forwards, is never called; swapping the executor does
// not change the verdict.
func TestExecutorSeam(t *testing.T) {
	m, ok := bench.ByName("add_w8")
	if !ok {
		t.Fatal("model add_w8 missing")
	}
	const depth = 4
	ref := checkModel(t, m, engine.WithBudgets(depth, 0))

	cold := &countingExecutor{}
	res := checkModel(t, m, engine.WithBudgets(depth, 0), engine.WithPortfolio(nil, 0),
		engine.WithExecutor(cold))
	if cold.races.Load() != depth+1 {
		t.Errorf("cold: %d races through the executor, want %d", cold.races.Load(), depth+1)
	}
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("cold: verdict changed behind a custom executor: (%v@%d) vs (%v@%d)",
			res.Verdict, res.K, ref.Verdict, ref.K)
	}

	warm := &countingExecutor{}
	res = checkModel(t, m, engine.WithBudgets(depth, 0), engine.WithPortfolio(nil, 0),
		engine.WithIncremental(),
		engine.WithExecutor(warm))
	if warm.liveRaces.Load() != depth+1 {
		t.Errorf("warm: %d live races through the executor, want %d", warm.liveRaces.Load(), depth+1)
	}
	if n := warm.payloads.Load(); n != 0 {
		t.Errorf("warm: the engine called OnClausePayload %d times; no clause passes between racers", n)
	}
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("warm: verdict changed behind a custom executor: (%v@%d) vs (%v@%d)",
			res.Verdict, res.K, ref.Verdict, ref.K)
	}

	// A single ordering is a portfolio of one: the same seam, one race
	// per depth (and per query for k-induction, which proves add_w8's
	// twin adders equal at k = 0).
	kind := engine.WithEngine(engine.KInduction)
	for _, tc := range []struct {
		name        string
		opts        []engine.Option
		races, live int64
	}{
		{"scratch", nil, depth + 1, 0},
		{"incremental", []engine.Option{engine.WithIncremental()}, 0, depth + 1},
		{"kind-sequential", []engine.Option{kind}, 2, 0},
		{"kind-incremental", []engine.Option{kind, engine.WithIncremental()}, 0, 2},
	} {
		single := &countingExecutor{}
		res := checkModel(t, m, append([]engine.Option{engine.WithBudgets(depth, 0), engine.WithExecutor(single)}, tc.opts...)...)
		if single.races.Load() != tc.races || single.liveRaces.Load() != tc.live {
			t.Errorf("%s: %d cold and %d live races through the executor, want %d and %d",
				tc.name, single.races.Load(), single.liveRaces.Load(), tc.races, tc.live)
		}
		if res.Verdict == engine.Unknown || res.Verdict == engine.Falsified {
			t.Errorf("%s: verdict %v behind a custom executor", tc.name, res.Verdict)
		}
	}
}

// TestProgressEvents: the event stream mirrors the per-depth results —
// one DepthStarted/DepthFinished pair per depth in order, with the
// finished stats matching Result.PerDepth.
func TestProgressEvents(t *testing.T) {
	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	var events []engine.Event
	res := checkModel(t, m, engine.WithBudgets(12, 0),
		engine.WithProgress(func(e engine.Event) { events = append(events, e) }))
	if res.Verdict != engine.Falsified || res.K != 9 {
		t.Fatalf("unexpected result (%v@%d)", res.Verdict, res.K)
	}
	var finished []engine.DepthStats
	depth := -1
	for _, e := range events {
		switch e.Kind {
		case engine.DepthStarted:
			if e.K != depth+1 {
				t.Fatalf("DepthStarted out of order: got k=%d after k=%d", e.K, depth)
			}
			depth = e.K
		case engine.DepthFinished:
			if e.K != depth {
				t.Fatalf("DepthFinished for k=%d inside depth %d", e.K, depth)
			}
			finished = append(finished, e.Depth)
		}
	}
	if !reflect.DeepEqual(finished, res.PerDepth) {
		t.Errorf("event stream does not mirror PerDepth: %d events vs %d rows", len(finished), len(res.PerDepth))
	}
}

// TestKindProgressEvents: all three k-induction shapes emit base and step
// events per depth, and every DepthFinished carries the depth's encode
// and solve walls, formula size and — on UNSAT depths, the default
// ordering records proofs — the extracted core.
func TestKindProgressEvents(t *testing.T) {
	m := bench.Model{Name: "twin", Build: func() *circuit.Circuit { return bench.Twin(6, 0, 0) }}
	for name, opts := range map[string][]engine.Option{
		"sequential": nil,
		"portfolio":  {engine.WithPortfolio(nil, 0)},
		"warm":       {engine.WithPortfolio(nil, 0), engine.WithIncremental()},
	} {
		var base, step int
		opts = append(opts, engine.WithEngine(engine.KInduction), engine.WithBudgets(4, 0),
			engine.WithProgress(func(e engine.Event) {
				if e.Kind != engine.DepthFinished {
					return
				}
				switch e.Query {
				case engine.QueryBase:
					base++
				case engine.QueryStep:
					step++
				}
				d := e.Depth
				if d.EncodeWall <= 0 || d.SolveWall <= 0 || d.FormulaVars == 0 || d.FormulaClauses == 0 || d.FormulaLits == 0 {
					t.Errorf("%s: %s depth %d misses walls or formula size: %+v", name, e.Query, e.K, d)
				}
				if d.Status == sat.Unsat && (d.CoreClauses == 0 || d.CoreVars == 0) {
					t.Errorf("%s: UNSAT %s depth %d misses its core: %+v", name, e.Query, e.K, d)
				}
			}))
		res := checkModel(t, m, opts...)
		if res.Verdict != engine.Proved {
			t.Fatalf("%s: unexpected verdict %v", name, res.Verdict)
		}
		if base == 0 || base != step {
			t.Errorf("%s: expected matching base/step event counts, got base=%d step=%d", name, base, step)
		}
	}
}

// nominalWinnerExecutor answers the races of one query with what a
// misbehaving (pluggable, possibly remote) executor could: a winner index
// whose result carries no verdict. Every other race runs locally.
type nominalWinnerExecutor struct {
	engine.LocalExecutor
	query engine.Query
}

// nominalWinner is that answer for a race of n attempts.
func nominalWinner(n int) portfolio.RaceResult {
	return portfolio.RaceResult{Winner: 0, Result: sat.Result{Status: sat.Unknown},
		Outcomes: make([]portfolio.AttemptOutcome, n)}
}

func (e nominalWinnerExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	if q != e.query {
		return e.LocalExecutor.Race(q, f, attempts, jobs, stop)
	}
	return nominalWinner(len(attempts))
}

func (e nominalWinnerExecutor) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	if q != e.query {
		return e.LocalExecutor.RaceLive(q, attempts, assumps, jobs, stop)
	}
	return nominalWinner(len(attempts))
}

// TestUndecidedDepthIsUnknown: a depth whose race names a winner without
// a verdict is undecided, and an undecided depth ends the check as
// Unknown at that depth on every shape — never as Holds or Proved over
// a depth nobody decided.
func TestUndecidedDepthIsUnknown(t *testing.T) {
	m := goldenModel(t, "gcnt_offset") // base UNSAT at every depth, 2-inductive
	for name, opts := range goldenShapes() {
		queries := []engine.Query{engine.QueryBMC}
		if engine.NewConfig(opts...).Kind == engine.KInduction {
			queries = []engine.Query{engine.QueryBase, engine.QueryStep}
		}
		for _, q := range queries {
			res := checkModel(t, m, append([]engine.Option{engine.WithBudgets(8, 0),
				engine.WithExecutor(nominalWinnerExecutor{query: q})}, opts...)...)
			if res.Verdict != engine.Unknown || res.K != 0 {
				t.Errorf("%s, %s undecided at depth 0: %v@%d, want unknown@0", name, q, res.Verdict, res.K)
			}
			if q == engine.QueryBMC && (len(res.PerDepth) != 1 || res.PerDepth[0].Status.Decided()) {
				t.Errorf("%s: %d per-depth rows, want one undecided row", name, len(res.PerDepth))
			}
		}
	}
}

// TestSessionRepeatable: a Session can be checked repeatedly; every call
// runs from scratch and returns the same verdict.
func TestSessionRepeatable(t *testing.T) {
	m, ok := bench.ByName("tlc_bug")
	if !ok {
		t.Fatal("model tlc_bug missing")
	}
	sess, err := engine.New(m.Build(), 0, engine.WithBudgets(5, 0), engine.WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Verdict != second.Verdict || first.K != second.K {
		t.Errorf("repeat check diverged: (%v@%d) vs (%v@%d)", first.Verdict, first.K, second.Verdict, second.K)
	}
}
