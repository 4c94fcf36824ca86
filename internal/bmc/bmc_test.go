// Package bmc_test is the behavioural suite of the BMC engine shapes
// (scratch, incremental, cold and warm portfolio), driven through
// engine.New(...).Check. The bmc package these tests were written
// against — thin wrappers over the engine — is gone; the suite keeps its
// directory so the repository's test floor, which tracks tests by
// package path, keeps tracking them.
package bmc_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

// check runs one session on c and fails the test on a structural error.
func check(t *testing.T, c *circuit.Circuit, opts ...engine.Option) *engine.Result {
	t.Helper()
	return checkCtx(t, context.Background(), c, opts...)
}

func checkCtx(t *testing.T, ctx context.Context, c *circuit.Circuit, opts ...engine.Option) *engine.Result {
	t.Helper()
	sess, err := engine.New(c, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// expired returns a context whose deadline has already passed.
func expired(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// failingCounter: width-bit counter, bad when count == target (reachable:
// counter-example of exactly length target).
func failingCounter(width int, target uint64) *circuit.Circuit {
	c := circuit.New("ctr-fail")
	w := c.LatchWord("cnt", width, 0)
	next, _ := c.IncWord(w)
	c.SetNextWord(w, next)
	c.AddProperty("hit", c.EqConst(w, target))
	return c
}

// passingCounter: mod-m counter (resets at m-1), bad = count == unreachable
// value >= m. The property holds at every depth.
func passingCounter(width int, m, unreachable uint64) *circuit.Circuit {
	c := circuit.New("ctr-pass")
	w := c.LatchWord("cnt", width, 0)
	inc, _ := c.IncWord(w)
	wrap := c.EqConst(w, m-1)
	next := c.MuxWord(wrap, c.ConstWord(width, 0), inc)
	c.SetNextWord(w, next)
	c.AddProperty("unreachable", c.EqConst(w, unreachable))
	return c
}

func allStrategies() []core.Strategy {
	return []core.Strategy{core.OrderVSIDS, core.OrderStatic, core.OrderDynamic, core.OrderTimeAxis}
}

func TestFailingCounterAllStrategies(t *testing.T) {
	for _, st := range allStrategies() {
		res := check(t, failingCounter(4, 9), engine.WithBudgets(15, 0), engine.WithOrdering(st))
		if res.Verdict != engine.Falsified || res.K != 9 {
			t.Errorf("%v: verdict=%v depth=%d, want falsified at 9", st, res.Verdict, res.K)
		}
		if res.Trace == nil || res.Trace.Depth != 9 {
			t.Errorf("%v: missing or wrong trace", st)
		}
		if len(res.PerDepth) != 10 {
			t.Errorf("%v: expected 10 per-depth records, got %d", st, len(res.PerDepth))
		}
	}
}

// TestPassingCounterAllStrategies: every ordering proves the passing
// counter to its bound, and every UNSAT depth's proof and core certify.
func TestPassingCounterAllStrategies(t *testing.T) {
	for _, st := range allStrategies() {
		res := check(t, passingCounter(3, 5, 7), engine.WithBudgets(12, 0), engine.WithOrdering(st), engine.WithCertify())
		if res.Verdict != engine.Holds {
			t.Errorf("%v: verdict=%v, want holds", st, res.Verdict)
		}
		if res.K != 12 {
			t.Errorf("%v: deepest checked depth=%d, want 12", st, res.K)
		}
	}
}

func TestCoreStatsOnlyWithRecording(t *testing.T) {
	c := passingCounter(3, 5, 7)
	res := check(t, c, engine.WithBudgets(4, 0), engine.WithOrdering(core.OrderVSIDS))
	for _, d := range res.PerDepth {
		if d.CoreClauses != 0 {
			t.Errorf("baseline without WithCertify must not extract cores")
		}
	}
	res = check(t, c, engine.WithBudgets(4, 0), engine.WithOrdering(core.OrderVSIDS), engine.WithCertify())
	for _, d := range res.PerDepth {
		if d.CoreClauses == 0 {
			t.Errorf("WithCertify must extract cores at depth %d", d.K)
		}
	}
}

func TestPerInstanceConflictBudget(t *testing.T) {
	// A hard instance family with a tiny conflict budget must exhaust.
	res := check(t, hardDistractor(12), engine.WithBudgets(20, 1), engine.WithOrdering(core.OrderVSIDS))
	if res.Verdict != engine.Unknown {
		t.Errorf("verdict=%v, want unknown (budget exhausted)", res.Verdict)
	}
}

func TestDeadlineInPast(t *testing.T) {
	res := checkCtx(t, expired(t), failingCounter(3, 5), engine.WithBudgets(10, 0), engine.WithOrdering(core.OrderVSIDS))
	if res.Verdict != engine.Unknown || res.K != 0 {
		t.Errorf("verdict=%v depth=%d, want unknown at 0", res.Verdict, res.K)
	}
}

// hardDistractor: twin shift registers fed by the same input stay equal
// forever, but refuting the "they diverge" property needs genuine case
// splits on the free inputs — conflicts at decision level >= 1 occur at
// every depth, so a 1-conflict budget must trip.
func hardDistractor(width int) *circuit.Circuit {
	c := circuit.New("twin")
	in := c.Input("in")
	x := c.LatchWord("x", width, 0)
	y := c.LatchWord("y", width, 0)
	c.SetNextWord(x, c.ShiftLeft(x, in))
	c.SetNextWord(y, c.ShiftLeft(y, in))
	c.AddProperty("diverge", c.OrReduce(c.XorWord(x, y)))
	return c
}

// TestStrategiesAgreeOnRandomModels is the central metamorphic property:
// the decision ordering must never change the verdict or the
// counter-example depth, only the search effort.
func TestStrategiesAgreeOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 12; iter++ {
		c := randomSequential(rng)
		type outcome struct {
			verdict engine.Verdict
			depth   int
		}
		var first *outcome
		for _, st := range allStrategies() {
			res := check(t, c, engine.WithBudgets(6, 0), engine.WithOrdering(st))
			o := &outcome{res.Verdict, res.K}
			if first == nil {
				first = o
			} else if *first != *o {
				t.Fatalf("iter %d: %v disagrees: %+v vs %+v", iter, st, first, o)
			}
		}
	}
}

func randomSequential(rng *rand.Rand) *circuit.Circuit {
	c := circuit.New("rand")
	var pool []circuit.Signal
	for i := 0; i < rng.Intn(3)+1; i++ {
		pool = append(pool, c.Input("in"))
	}
	var latches []circuit.Signal
	for i := 0; i < rng.Intn(4)+2; i++ {
		l := c.Latch("l", rng.Intn(2) == 0)
		latches = append(latches, l)
		pool = append(pool, l)
	}
	for i := 0; i < rng.Intn(25)+10; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		s := c.And(a, b)
		if !s.IsConst() {
			pool = append(pool, s)
		}
	}
	for _, l := range latches {
		c.SetNext(l, pool[rng.Intn(len(pool))])
	}
	// Bad = conjunction of a few pool signals, biased toward rare.
	bad := c.And(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	c.AddProperty("bad", bad)
	return c
}

func TestTimeAxisGuidancePrefersEarlyFrames(t *testing.T) {
	res := check(t, failingCounter(3, 5), engine.WithBudgets(8, 0), engine.WithOrdering(core.OrderTimeAxis))
	if res.Verdict != engine.Falsified || res.K != 5 {
		t.Errorf("timeaxis: verdict=%v depth=%d", res.Verdict, res.K)
	}
}

func TestScoreModesAllRun(t *testing.T) {
	for _, m := range []core.ScoreMode{core.WeightedSum, core.UnweightedSum, core.LastCoreOnly, core.ExpDecay} {
		res := check(t, passingCounter(3, 5, 7), engine.WithBudgets(8, 0), engine.WithOrdering(core.OrderStatic), engine.WithScoreMode(m))
		if res.Verdict != engine.Holds {
			t.Errorf("%v: verdict=%v", m, res.Verdict)
		}
	}
}

func TestSwitchDivisorPlumbing(t *testing.T) {
	// With divisor 1 the dynamic switch threshold equals the literal count
	// (rarely hit); with a huge distractor and tiny divisor... just check
	// both run and agree.
	c := failingCounter(4, 9)
	for _, div := range []int{1, 64, 100000} {
		res := check(t, c, engine.WithBudgets(12, 0), engine.WithOrdering(core.OrderDynamic), engine.WithSwitchDivisor(div))
		if res.Verdict != engine.Falsified || res.K != 9 {
			t.Errorf("divisor %d: verdict=%v depth=%d", div, res.Verdict, res.K)
		}
	}
}

func TestTotalsAccumulate(t *testing.T) {
	res := check(t, failingCounter(3, 5), engine.WithBudgets(8, 0), engine.WithOrdering(core.OrderVSIDS))
	var dec int64
	for _, d := range res.PerDepth {
		dec += d.Stats.Decisions
	}
	if res.Total.Decisions != dec {
		t.Errorf("total decisions %d != sum %d", res.Total.Decisions, dec)
	}
	if res.TotalTime <= 0 {
		t.Errorf("total time not recorded")
	}
}
