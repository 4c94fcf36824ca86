package portfolio

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/sat"
)

// php builds the pigeonhole formula PHP(p, h): unsat when p > h, and hard
// for CDCL as p grows — the standard cancellation workload.
func php(p, h int) *cnf.Formula {
	f := cnf.New(p * h)
	v := func(pi, hi int) int { return pi*h + hi + 1 }
	for pi := 0; pi < p; pi++ {
		c := make(cnf.Clause, h)
		for hi := 0; hi < h; hi++ {
			c[hi] = lits.PosLit(lits.Var(v(pi, hi)))
		}
		f.AddClause(c)
	}
	for hi := 0; hi < h; hi++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				f.Add(-v(a, hi), -v(b, hi))
			}
		}
	}
	return f
}

func attempts(n int, opts sat.Options) []Attempt {
	out := make([]Attempt, n)
	for i := range out {
		out[i] = Attempt{Name: DefaultSet()[i%4].String(), Opts: opts}
	}
	return out
}

func TestRaceUnsatVerdict(t *testing.T) {
	f := php(6, 5)
	res := Race(f, attempts(4, sat.Options{}), 4, nil)
	if res.Winner < 0 {
		t.Fatalf("race had no winner")
	}
	if res.Result.Status != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", res.Result.Status)
	}
	if res.WinnerName() == "" {
		t.Fatalf("winner has no name")
	}
	for i, o := range res.Outcomes {
		if o.Skipped {
			continue
		}
		if i != res.Winner && !o.Canceled && !o.Status.Decided() {
			t.Fatalf("loser %d (%s) neither cancelled nor decided: %v", i, o.Name, o.Status)
		}
	}
}

func TestRaceSatVerdictAndModel(t *testing.T) {
	f := php(5, 5) // satisfiable: one pigeon per hole
	res := Race(f, attempts(3, sat.Options{}), 0, nil)
	if res.Winner < 0 || res.Result.Status != sat.Sat {
		t.Fatalf("want Sat winner, got winner=%d status=%v", res.Winner, res.Result.Status)
	}
	if err := sat.VerifyModel(f, res.Result.Model); err != nil {
		t.Fatalf("winner model invalid: %v", err)
	}
}

// TestRaceLoadsIntoKeptSolver: an attempt that names a solver gets the race
// a new solver would have run, formula after formula, and a model an
// earlier race returned stays valid when the solver is loaded again.
func TestRaceLoadsIntoKeptSolver(t *testing.T) {
	kept := new(sat.Solver)
	var model lits.Assignment
	for _, f := range []*cnf.Formula{php(7, 6), php(5, 5), php(6, 5)} {
		want := Race(f, []Attempt{{Name: "new", Opts: sat.Options{}}}, 1, nil)
		got := Race(f, []Attempt{{Name: "kept", Opts: sat.Options{}, Solver: kept}}, 1, nil)
		want.Result.Stats.SolveTime, got.Result.Stats.SolveTime = 0, 0
		if got.Winner != 0 || got.Result.Status != want.Result.Status || got.Result.Stats != want.Result.Stats {
			t.Errorf("kept solver: %v %+v, a new one: %v %+v", got.Result.Status, got.Result.Stats, want.Result.Status, want.Result.Stats)
		}
		if got.Result.Status == sat.Sat {
			model = got.Result.Model
		}
	}
	if err := sat.VerifyModel(php(5, 5), model); err != nil {
		t.Errorf("the model of an earlier race did not survive the next load: %v", err)
	}
}

func TestRaceNoWinnerOnBudget(t *testing.T) {
	opts := sat.Options{}
	opts.MaxConflicts = 1
	res := Race(php(9, 8), attempts(3, opts), 3, nil)
	if res.Winner != -1 {
		t.Fatalf("winner = %d, want -1", res.Winner)
	}
	if name := res.WinnerName(); name != "" {
		t.Fatalf("WinnerName = %q, want empty", name)
	}
	for _, o := range res.Outcomes {
		if o.Status.Decided() {
			t.Fatalf("budgeted racer decided: %v", o.Status)
		}
	}
}

func TestRaceExternalStop(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan RaceResult, 1)
	go func() {
		done <- Race(php(11, 10), attempts(4, sat.Options{}), 4, stop)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case res := <-done:
		if res.Winner != -1 {
			t.Fatalf("externally stopped race reported winner %d", res.Winner)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("race did not stop within 5s")
	}
}

func TestRaceSkipsQueueAfterWin(t *testing.T) {
	// jobs=1 serializes the attempts; the first decides, so the rest must
	// be skipped, not solved.
	res := Race(php(5, 4), attempts(4, sat.Options{}), 1, nil)
	if res.Winner != 0 {
		t.Fatalf("winner = %d, want 0 with one worker", res.Winner)
	}
	skipped := 0
	for i, o := range res.Outcomes {
		if i != res.Winner && o.Skipped {
			skipped++
		}
	}
	if skipped != len(res.Outcomes)-1 {
		t.Fatalf("skipped %d of %d losers, want all", skipped, len(res.Outcomes)-1)
	}
}

func TestRaceEmptyAttempts(t *testing.T) {
	res := Race(php(3, 3), nil, 2, nil)
	if res.Winner != -1 || len(res.Outcomes) != 0 {
		t.Fatalf("empty race: winner=%d outcomes=%d", res.Winner, len(res.Outcomes))
	}
}

// TestRaceSharedScoreBoard hammers one mutex-guarded core.ScoreBoard from
// concurrent races the way the engine's depth loop does across depths —
// guidance snapshots are read while winner cores are folded in. Run under
// -race.
func TestRaceSharedScoreBoard(t *testing.T) {
	board := core.NewScoreBoard(core.WeightedSum)
	f := php(6, 5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				opts := sat.Options{}
				opts.Guidance = board.Guidance(f.NumVars)
				rec := core.NewRecorder(f.NumClauses())
				opts.Recorder = rec
				res := Race(f, []Attempt{
					{Name: "static", Opts: opts},
					{Name: "vsids", Opts: sat.Options{}},
				}, 2, nil)
				if res.Winner >= 0 && res.Result.Status == sat.Unsat && res.Winner == 0 && rec.HasProof() {
					board.Update(rec.CoreVars(f), round+1)
				}
				// Unconditional concurrent reads/writes exercise the lock.
				board.Update([]lits.Var{lits.Var(g + 1)}, round+1)
				_ = board.Score(lits.Var(g + 1))
				_ = board.NumScored()
				_ = board.NumCores()
			}
		}(g)
	}
	wg.Wait()
	if board.NumCores() == 0 {
		t.Fatalf("no cores folded in")
	}
}

func TestParseSet(t *testing.T) {
	set, err := ParseSet("vsids, dynamic")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0] != core.OrderVSIDS || set[1] != core.OrderDynamic {
		t.Fatalf("bad set: %v", set)
	}
	if set.String() != "vsids,dynamic" {
		t.Fatalf("String = %q", set.String())
	}
	if _, err := ParseSet("vsids,vsids"); err == nil {
		t.Fatalf("duplicate accepted")
	}
	if _, err := ParseSet("nope"); err == nil {
		t.Fatalf("unknown strategy accepted")
	}
	if def, err := ParseSet(""); err != nil || len(def) != 4 {
		t.Fatalf("empty spec should give the default set, got %v, %v", def, err)
	}
	if def := DefaultSet(); def.String() != "vsids,static,dynamic,timeaxis" {
		t.Fatalf("default set = %q", def.String())
	}
}

func TestTelemetryAggregation(t *testing.T) {
	tel := NewTelemetry()
	f := php(6, 5)
	for k := 0; k < 3; k++ {
		res := Race(f, attempts(3, sat.Options{}), 3, nil)
		tel.Observe(k, &res)
	}
	if len(tel.Depths) != 3 {
		t.Fatalf("depths = %d", len(tel.Depths))
	}
	totalWins := 0
	for _, n := range tel.Strategies() {
		totalWins += tel.Wins[n]
	}
	if totalWins != 3 {
		t.Fatalf("wins = %d, want 3", totalWins)
	}
}

// liveAttempts builds n persistent solvers over the same formula, one per
// default-set name.
func liveAttempts(n int, f *cnf.Formula, opts sat.Options) []LiveAttempt {
	out := make([]LiveAttempt, n)
	for i := range out {
		s := sat.New(f, opts)
		out[i] = LiveAttempt{Name: DefaultSet()[i%4].String(), Solver: func() *sat.Solver { return s }}
	}
	return out
}

// TestRaceLiveAsksOnlyRacingAttempts: an attempt's solver is produced in
// its worker slot, so an attempt the race skips is never asked for one.
func TestRaceLiveAsksOnlyRacingAttempts(t *testing.T) {
	f := php(5, 4)
	var asked [3]atomic.Int32
	live := make([]LiveAttempt, len(asked))
	for i := range live {
		s := sat.New(f, sat.Options{})
		live[i] = LiveAttempt{Name: DefaultSet()[i].String(), Solver: func() *sat.Solver {
			asked[i].Add(1)
			return s
		}}
	}
	res := RaceLive(live, nil, 1, nil)
	if res.Winner != 0 || res.Result.Status != sat.Unsat {
		t.Fatalf("want attempt 0 to decide Unsat, got winner=%d status=%v", res.Winner, res.Result.Status)
	}
	for i := range asked {
		want := int32(0)
		if i == 0 {
			want = 1
		}
		if got := asked[i].Load(); got != want {
			t.Errorf("attempt %d: solver asked for %d times, want %d (skipped=%v)", i, got, want, res.Outcomes[i].Skipped)
		}
	}
}

func TestRaceLiveVerdictAndReuse(t *testing.T) {
	f := php(6, 5)
	live := liveAttempts(3, f, sat.Options{})
	res := RaceLive(live, nil, 3, nil)
	if res.Winner < 0 || res.Result.Status != sat.Unsat {
		t.Fatalf("want Unsat winner, got winner=%d status=%v", res.Winner, res.Result.Status)
	}
	for i, o := range res.Outcomes {
		if i != res.Winner && !o.Skipped && !o.Canceled && !o.Status.Decided() {
			t.Fatalf("loser %d neither cancelled nor decided: %v", i, o.Status)
		}
	}
	// The same solvers race again — cancelled losers must have survived
	// the interruption with a usable state, and everyone must agree.
	res2 := RaceLive(live, nil, 3, nil)
	if res2.Winner < 0 || res2.Result.Status != sat.Unsat {
		t.Fatalf("re-race: want Unsat winner, got winner=%d status=%v", res2.Winner, res2.Result.Status)
	}
}

func TestRaceLiveAssumptions(t *testing.T) {
	// php(5,5) is sat; assuming pigeon 0 out of every hole makes it unsat
	// under assumptions, and the solvers stay reusable afterwards.
	f := php(5, 5)
	live := liveAttempts(2, f, sat.Options{})
	var block []lits.Lit
	for hi := 0; hi < 5; hi++ {
		block = append(block, lits.NegLit(lits.Var(hi+1)))
	}
	res := RaceLive(live, block, 2, nil)
	if res.Winner < 0 || res.Result.Status != sat.Unsat {
		t.Fatalf("assumed race: want Unsat, got winner=%d status=%v", res.Winner, res.Result.Status)
	}
	res2 := RaceLive(live, nil, 2, nil)
	if res2.Winner < 0 || res2.Result.Status != sat.Sat {
		t.Fatalf("unassumed re-race: want Sat, got winner=%d status=%v", res2.Winner, res2.Result.Status)
	}
	if err := sat.VerifyModel(f, res2.Result.Model); err != nil {
		t.Fatalf("model invalid: %v", err)
	}
}

func TestRaceLiveExternalStop(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan RaceResult, 1)
	go func() {
		done <- RaceLive(liveAttempts(4, php(11, 10), sat.Options{}), nil, 4, stop)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case res := <-done:
		if res.Winner != -1 {
			t.Fatalf("externally stopped live race reported winner %d", res.Winner)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("live race did not stop within 5s")
	}
}

func TestParseSetReportsAllUnknowns(t *testing.T) {
	_, err := ParseSet("vsids,foo,bar")
	if err == nil {
		t.Fatalf("unknown strategies accepted")
	}
	msg := err.Error()
	for _, want := range []string{`"foo"`, `"bar"`, "vsids", "static", "dynamic", "timeaxis"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	// Unknowns and duplicates surface together in one pass.
	_, err = ParseSet("nope,static,static")
	if err == nil {
		t.Fatalf("mixed bad set accepted")
	}
	msg = err.Error()
	for _, want := range []string{`unknown "nope"`, `duplicate "static"`} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestTelemetryExchange(t *testing.T) {
	tel := NewTelemetry()
	tel.ObserveExchange(map[string]int64{"vsids": 5}, map[string]int64{"static": 7}, map[string]int64{"static": 3}, true, true)
	tel.ObserveExchange(map[string]int64{"vsids": 2}, nil, nil, true, false)
	if tel.ExportedClauses["vsids"] != 7 || tel.ImportedClauses["static"] != 7 {
		t.Fatalf("exchange totals: %v / %v", tel.ExportedClauses, tel.ImportedClauses)
	}
	if tel.DedupDropped["static"] != 3 {
		t.Fatalf("dedup drops: %v", tel.DedupDropped)
	}
	if tel.WarmWins != 2 || tel.SharedWins != 1 {
		t.Fatalf("attribution: warm=%d shared=%d", tel.WarmWins, tel.SharedWins)
	}
	var buf strings.Builder
	tel.WriteSummary(&buf)
	for _, want := range []string{"exported", "imported", "dropped", "warm pool:", "duplicate clauses dropped"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTelemetryObserveAborted(t *testing.T) {
	tel := NewTelemetry()
	race := &RaceResult{
		Winner: -1,
		Outcomes: []AttemptOutcome{
			{Name: "vsids", Status: sat.Interrupted, Stats: sat.Stats{Conflicts: 40}},
			{Name: "static", Status: sat.Interrupted, Stats: sat.Stats{Conflicts: 2}},
			{Name: "dynamic", Skipped: true},
		},
	}
	tel.ObserveAborted(3, race)
	if tel.AbortedRaces != 1 || tel.AbortedConflicts != 42 {
		t.Fatalf("aborted accounting: races=%d conflicts=%d", tel.AbortedRaces, tel.AbortedConflicts)
	}
	// Nothing may leak into the win/loss columns or the depth log.
	if len(tel.Depths) != 0 || len(tel.Wins) != 0 || len(tel.CancelledRuns) != 0 ||
		len(tel.SkippedRuns) != 0 || len(tel.ConflictsSpent) != 0 || tel.WastedConflicts != 0 {
		t.Fatalf("aborted race leaked into win/loss telemetry: %+v", tel)
	}
	var buf strings.Builder
	tel.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "aborted: 1 races") {
		t.Fatalf("summary missing aborted line:\n%s", buf.String())
	}
	// The totals line must reconcile with lifetime solver stats: the
	// aborted races' conflicts are excluded from the per-strategy columns,
	// so they appear explicitly up top.
	if !strings.Contains(buf.String(), "42 in aborted races") {
		t.Fatalf("totals line missing aborted conflicts:\n%s", buf.String())
	}
}
