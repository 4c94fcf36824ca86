package racer

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// newTestPool builds a pool over a fresh unrolling of the circuit, with
// what the engine would resolve for an unset strategy set, options, board
// and divisor: the four-way set, sat.Options{}, a weighted-sum board, the
// paper's divisor; and recorders on.
func newTestPool(t *testing.T, c *circuit.Circuit, cfg Config) (*Pool, *unroll.Unroller) {
	t.Helper()
	u, err := unroll.New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = portfolio.DefaultSet()
	}
	if cfg.Board == nil {
		cfg.Board = core.NewScoreBoard(core.WeightedSum)
	}
	cfg.Opts, cfg.Divisor, cfg.Record = sat.Options{}, core.SwitchDivisor, true
	return NewPool(DeltaSource(u.Delta()), cfg), u
}

// TestPoolVerdictsMatchScratch is the pool's defining property: racing
// persistent solvers must reproduce the scratch instance's satisfiability
// at every depth, on passing and failing circuits.
func TestPoolVerdictsMatchScratch(t *testing.T) {
	models := []struct {
		name  string
		build func() *circuit.Circuit
		depth int
	}{
		{"cnt_w4_t9", func() *circuit.Circuit { return bench.Counter(4, 9, 2, 6) }, 10},
		{"tlc", func() *circuit.Circuit { return bench.TrafficLight(false, 2, 6) }, 6},
		{"add_w4", func() *circuit.Circuit { return bench.AdderTwin(4, 6, 16) }, 3},
	}
	for _, m := range models {
		pool, u := newTestPool(t, m.build(), Config{})
		for k := 0; k <= m.depth; k++ {
			out := pool.RaceDepth(k)
			if out.Race.Winner < 0 {
				t.Fatalf("%s depth %d: no winner", m.name, k)
			}
			scratch := sat.New(u.Formula(k), sat.Options{}).Solve()
			if got := out.Race.Result.Status; got != scratch.Status {
				t.Fatalf("%s depth %d: pool=%v scratch=%v", m.name, k, got, scratch.Status)
			}
			if out.Race.Result.Status == sat.Sat {
				tr := u.Delta().ExtractTrace(out.Race.Result.Model, k)
				if !u.Replay(tr) {
					t.Fatalf("%s depth %d: pool trace failed replay", m.name, k)
				}
				break
			}
		}
	}
}

// TestPoolMarksWarmWinners: on a conflict-heavy UNSAT sequence the winner
// attribution must mark racers warm on later depths, and never at depth 0.
func TestPoolMarksWarmWinners(t *testing.T) {
	pool, _ := newTestPool(t, bench.AdderTwin(4, 6, 16), Config{})
	sawWarmWin := false
	for k := 0; k <= 4; k++ {
		out := pool.RaceDepth(k)
		if out.Race.Winner < 0 || out.Race.Result.Status != sat.Unsat {
			t.Fatalf("depth %d: want an Unsat winner, got %v", k, out.Race.Result.Status)
		}
		if k == 0 && out.WinnerWarm {
			t.Fatalf("depth 0: a winner marked warm before any racer searched")
		}
		if k > 0 && out.WinnerWarm {
			sawWarmWin = true
		}
	}
	if !sawWarmWin {
		t.Fatalf("no warm winner across depths 1..4")
	}
}

// TestPoolScoreBoardFeedback: UNSAT depths must fold the winner's core
// into the shared board when a core-consuming strategy is racing.
func TestPoolScoreBoardFeedback(t *testing.T) {
	board := core.NewScoreBoard(core.WeightedSum)
	pool, _ := newTestPool(t, bench.AdderTwin(4, 6, 16), Config{
		Strategies: portfolio.StrategySet{core.OrderVSIDS, core.OrderDynamic},
		Board:      board,
	})
	for k := 0; k <= 3; k++ {
		pool.RaceDepth(k)
	}
	if board.NumCores() == 0 {
		t.Fatalf("no cores folded into the board across 4 UNSAT depths")
	}
}

// TestPoolSubsetStrategiesAndJobs: a two-strategy pool with one worker
// slot must still decide every depth (skipped racers sit races out but
// stay consistent).
func TestPoolSubsetStrategiesAndJobs(t *testing.T) {
	pool, u := newTestPool(t, bench.Counter(4, 9, 2, 6), Config{
		Strategies: portfolio.StrategySet{core.OrderVSIDS, core.OrderTimeAxis},
		Jobs:       1,
	})
	for k := 0; k <= 9; k++ {
		out := pool.RaceDepth(k)
		if out.Race.Winner < 0 {
			t.Fatalf("depth %d: no winner", k)
		}
		scratch := sat.New(u.Formula(k), sat.Options{}).Solve()
		if out.Race.Result.Status != scratch.Status {
			t.Fatalf("depth %d: pool=%v scratch=%v", k, out.Race.Result.Status, scratch.Status)
		}
	}
}

// TestPoolRaceCleanUnderDetector hammers the full pool — concurrent
// racers, cancellation, recorders and score-board feedback — across enough
// depths for every code path to interleave; the assertion is the race
// detector staying quiet (CI runs -race). It also doubles as the
// depth-boundary contract check: the core fold runs after every race
// joined, so a fold racing a live Solve would trip the detector.
func TestPoolRaceCleanUnderDetector(t *testing.T) {
	pool, _ := newTestPool(t, bench.ParityMixer(5, 3, 10), Config{
		Jobs: 4,
	})
	for k := 0; k <= 6; k++ {
		out := pool.RaceDepth(k)
		if out.Race.Winner < 0 {
			t.Fatalf("depth %d: no winner", k)
		}
	}
}

// cachedFrames serves a delta's frames from memory, so a benchmark can feed
// the same sequence to one pool after another.
type cachedFrames struct {
	Source
	frames []*cnf.Formula
}

func (c cachedFrames) Frame(k int) *cnf.Formula { return c.frames[k] }

// BenchmarkPoolFeed is the feed half of the benchmark's incremental
// workloads in small: a one-racer pool, recording on, takes 30 frames of
// mix_w8 — AddVars, AddClause and the recorder's leaf registration per
// clause, one frame per catch-up — with the search stubbed out: the race
// asks every attempt for its solver and solves nothing.
func BenchmarkPoolFeed(b *testing.B) {
	src, clauses := cachedMixer(b, 30)
	cfg := Config{
		Strategies: portfolio.StrategySet{core.OrderDynamic},
		Opts:       sat.Options{},
		Board:      core.NewScoreBoard(core.WeightedSum),
		Divisor:    core.SwitchDivisor,
		Record:     true,
		Race:       loadOnly,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := NewPool(src, cfg)
		for k := range src.frames {
			pool.RaceDepth(k)
		}
	}
	b.ReportMetric(float64(clauses)*float64(b.N)/b.Elapsed().Seconds(), "clauses/s")
}

// BenchmarkPoolLateStart is the other shape of the same load: the racer is
// skipped for 29 depths of mix_w8 and then brought to depth 29 in one
// catch-up, 30 frames at once.
func BenchmarkPoolLateStart(b *testing.B) {
	src, clauses := cachedMixer(b, 30)
	var k int // the depth being raced
	cfg := Config{
		Strategies: portfolio.StrategySet{core.OrderDynamic},
		Opts:       sat.Options{},
		Board:      core.NewScoreBoard(core.WeightedSum),
		Divisor:    core.SwitchDivisor,
		Record:     true,
		Race: func(q string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
			if k < len(src.frames)-1 {
				return portfolio.RaceResult{Winner: -1}
			}
			return loadOnly(q, attempts, assumps, jobs, stop)
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := NewPool(src, cfg)
		for k = range src.frames {
			pool.RaceDepth(k)
		}
		if fed := pool.racers[0].feed.Fed(); fed != len(src.frames) {
			b.Fatalf("racer holds %d frames after the late start, want %d", fed, len(src.frames))
		}
	}
	b.ReportMetric(float64(clauses)*float64(b.N)/b.Elapsed().Seconds(), "clauses/s")
}

// cachedMixer encodes the first n frames of mix_w8 once.
func cachedMixer(b *testing.B, n int) (cachedFrames, int) {
	u, err := unroll.New(bench.ParityMixer(8, 3, 12), 0)
	if err != nil {
		b.Fatal(err)
	}
	src := cachedFrames{Source: DeltaSource(u.Delta())}
	clauses := 0
	for k := 0; k < n; k++ {
		src.frames = append(src.frames, src.Source.Frame(k))
		clauses += src.frames[k].NumClauses()
	}
	return src, clauses
}

// loadOnly is a RaceFunc that brings every attempt's solver to the depth
// and decides nothing.
func loadOnly(_ string, attempts []portfolio.LiveAttempt, _ []lits.Lit, _ int, _ <-chan struct{}) portfolio.RaceResult {
	for _, a := range attempts {
		a.Solver()
	}
	return portfolio.RaceResult{Winner: -1}
}

// TestFoldCoreOverlap: each fold reports the Jaccard overlap of its core
// variables with the previous depth's, and none where there is no previous
// depth's core to compare with — at depth 0, at a depth won on a remote
// worker (a recorder without a proof), and at the depth after one.
func TestFoldCoreOverlap(t *testing.T) {
	board := core.NewScoreBoard(core.WeightedSum)
	fold := func(k int, vars ...int) *float64 {
		rec := core.NewRecorderWith(0, core.WithLeaves)
		final := make([]sat.ClauseID, len(vars))
		for i, v := range vars {
			rec.AddLeaf(sat.ClauseID(i), []lits.Lit{lits.PosLit(lits.Var(v))})
			final[i] = sat.ClauseID(i)
		}
		if len(vars) > 0 {
			rec.RecordFinal(final)
		}
		var out DepthOutcome
		out.FoldCore(rec, board, k, nil, 10, nil)
		return out.CoreOverlap
	}
	for _, c := range []struct {
		k    int
		vars []int // none: the depth was won remotely
		want float64
		some bool
	}{
		{k: 0, vars: []int{1, 2}},
		{k: 1, vars: []int{2, 3}, want: 1.0 / 3, some: true},
		{k: 2},
		{k: 3, vars: []int{2, 3}},
		{k: 4, vars: []int{2, 3, 4}, want: 2.0 / 3, some: true},
		{k: 5, vars: []int{2, 3, 4}, want: 1, some: true},
	} {
		var got float64
		p := fold(c.k, c.vars...)
		if p != nil {
			got = *p
		}
		if (p != nil) != c.some || got != c.want {
			t.Errorf("depth %d: overlap %v (reported: %v), want %v (%v)", c.k, got, p != nil, c.want, c.some)
		}
	}
	if board.NumCores() != 5 {
		t.Errorf("%d cores folded, want 5", board.NumCores())
	}
}

// TestFoldCoreCertifies: a Complete recorder's proof is certified before
// its core is folded. A genuine refutation folds; a final conflict that
// does not refute, or none at all on an UNSAT winner (the race was won
// where this recorder did not see it), is an error and folds nothing.
func TestFoldCoreCertifies(t *testing.T) {
	board := core.NewScoreBoard(core.WeightedSum)
	for _, c := range []struct {
		name  string
		leaf  []lits.Lit // the second leaf beside x1
		final bool
		ok    bool
	}{
		{"refutation", []lits.Lit{lits.NegLit(1)}, true, true},
		{"no conflict", []lits.Lit{lits.PosLit(2)}, true, false},
		{"no proof", []lits.Lit{lits.NegLit(1)}, false, false},
	} {
		rec := core.NewRecorderWith(0, core.Complete)
		rec.AddLeaf(0, []lits.Lit{lits.PosLit(1)})
		rec.AddLeaf(1, c.leaf)
		if c.final {
			rec.RecordFinal([]sat.ClauseID{0, 1})
		}
		before := board.NumCores()
		var out DepthOutcome
		err := out.FoldCore(rec, board, 0, nil, 10, nil)
		if (err == nil) != c.ok {
			t.Errorf("%s: FoldCore returned %v, want success %v", c.name, err, c.ok)
		}
		if folded := board.NumCores() > before; folded != c.ok || (out.CoreClauses == 2) != c.ok {
			t.Errorf("%s: folded %v with %d core clauses, want a fold %v", c.name, folded, out.CoreClauses, c.ok)
		}
	}
}

// flipRecorder hands a recorder what a corrupt solver would: every learnt
// clause with its first literal flipped.
type flipRecorder struct{ sat.ProofRecorder }

func (r flipRecorder) RecordLearned(id sat.ClauseID, literals []lits.Lit, antecedents []sat.ClauseID) {
	flipped := append([]lits.Lit(nil), literals...)
	flipped[0] = flipped[0].Neg()
	r.ProofRecorder.RecordLearned(id, flipped, antecedents)
}

// TestPoolCertifyRejectsMutant: a warm pool with Complete recorders
// certifies every UNSAT depth it folds, and one whose racers' recorders
// are handed corrupt learnt clauses reports the failed certification.
func TestPoolCertifyRejectsMutant(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		pool, _ := newTestPool(t, bench.AdderTwin(4, 6, 16), Config{Payload: core.Complete})
		if mutate {
			for _, r := range pool.racers {
				r.opts.Recorder = flipRecorder{r.feed.Rec}
			}
		}
		var err error
		for k := 0; k <= 4 && err == nil; k++ {
			out := pool.RaceDepth(k)
			if out.Race.Result.Status != sat.Unsat {
				t.Fatalf("mutate %v: depth %d is %v, want unsat", mutate, k, out.Race.Result.Status)
			}
			err = out.Err
		}
		if (err != nil) != mutate {
			t.Errorf("mutate %v: certification error %v", mutate, err)
		}
	}
}
