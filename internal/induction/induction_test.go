// Package induction_test is the behavioural suite of the k-induction
// engine shapes (sequential, cold portfolio, warm pools), driven through
// engine.New(...).Check, plus the encoding tests of the step-query
// formulas they solve. The induction package these tests were written
// against — thin wrappers over the engine — is gone; the suite keeps its
// directory so the repository's test floor, which tracks tests by
// package path, keeps tracking them.
package induction_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// prove runs one k-induction session on property prop of c, under a
// generous deadline, and fails the test on a structural error.
func prove(t *testing.T, c *circuit.Circuit, prop, maxK int, opts ...engine.Option) *engine.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return proveCtx(t, ctx, c, prop, maxK, opts...)
}

func proveCtx(t *testing.T, ctx context.Context, c *circuit.Circuit, prop, maxK int, opts ...engine.Option) *engine.Result {
	t.Helper()
	opts = append([]engine.Option{engine.WithEngine(engine.KInduction), engine.WithBudgets(maxK, 0),
		engine.WithOrdering(core.OrderVSIDS)}, opts...)
	sess, err := engine.New(c, prop, opts...)
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
func expired() (context.Context, context.CancelFunc) {
	return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
}

// offsetCounter is the non-0-inductive invariant used across these
// tests: true, but the step case only closes at deeper k under the
// simple-path constraint — the counter wraps at 9, and "never 12" can be
// left from the unreachable state 11.
func offsetCounter() *circuit.Circuit { return bench.OffsetCounter(4, 10, 12) }

func TestTwinIsInductiveImmediately(t *testing.T) {
	// Twin registers: x == y is preserved by every step, so the property
	// closes at k = 0.
	res := prove(t, bench.Twin(8, 0, 0), 0, 4)
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v, want proved", res.Verdict)
	}
	if res.K != 0 {
		t.Fatalf("proved at k=%d, want 0", res.K)
	}
}

func TestGatedCounterProved(t *testing.T) {
	// "Counter never reaches m" is inductive: m is only reachable from
	// m-1, where the wrap fires instead.
	res := prove(t, bench.GatedCounter(4, 10, 0, 0), 0, 6)
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v at k=%d, want proved", res.Verdict, res.K)
	}
}

func TestNonInductiveInvariantNeedsDeeperK(t *testing.T) {
	res := prove(t, offsetCounter(), 0, 16)
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v at k=%d, want proved", res.Verdict, res.K)
	}
	if res.K == 0 {
		t.Fatal("property should not be 0-inductive")
	}
}

func TestBuggyModelsFalsifiedAtBMCDepth(t *testing.T) {
	for _, name := range []string{"tlc_bug", "arb_5_bug", "pipe_s5_bug"} {
		m, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		res := prove(t, m.Build(), 0, m.FailDepth+2)
		if res.Verdict != engine.Falsified {
			t.Fatalf("%s: verdict %v, want falsified", name, res.Verdict)
		}
		if res.K != m.FailDepth {
			t.Fatalf("%s: counter-example at %d, want %d", name, res.K, m.FailDepth)
		}
		if res.Trace == nil {
			t.Fatalf("%s: no trace", name)
		}
	}
}

func TestStrategiesAgreeOnInduction(t *testing.T) {
	models := []func() *circuit.Circuit{
		func() *circuit.Circuit { return bench.Twin(6, 0, 0) },
		func() *circuit.Circuit { return bench.GatedCounter(4, 10, 0, 0) },
		func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) },
	}
	for i, build := range models {
		base := prove(t, build(), 0, 8)
		// Sequential k-induction takes every ordering, time-axis included.
		for _, st := range []core.Strategy{core.OrderStatic, core.OrderDynamic, core.OrderTimeAxis} {
			res := prove(t, build(), 0, 8, engine.WithOrdering(st))
			if res.Verdict != base.Verdict || res.K != base.K {
				t.Fatalf("model %d: %v gives %v@%d, baseline %v@%d",
					i, st, res.Verdict, res.K, base.Verdict, base.K)
			}
		}
	}
}

func TestUnknownWhenMaxKTooSmall(t *testing.T) {
	// The offset-counter invariant is not 0- or 1-inductive; a depth
	// bound of 1 must yield Unknown, never a wrong verdict.
	res := prove(t, offsetCounter(), 0, 1)
	if res.Verdict != engine.Unknown || res.K != 1 {
		t.Fatalf("%v@%d, want unknown@1", res.Verdict, res.K)
	}
}

func TestStepFormulaShape(t *testing.T) {
	c := bench.Twin(4, 0, 0)
	u, err := unroll.New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := u.StepInstance().Extend(2)
	// Aux variables must extend past the frame-stable range.
	if f.NumVars <= u.NumVars(3) {
		t.Fatalf("no aux vars allocated: %d <= %d", f.NumVars, u.NumVars(3))
	}
	for i, cl := range f.Clauses {
		if int(cl.MaxVar()) > f.NumVars {
			t.Fatalf("clause %d: var %d out of range %d", i, cl.MaxVar(), f.NumVars)
		}
	}
	// The step instance of an inductive property must be UNSAT.
	if r := sat.New(f, sat.Options{}).Solve(); r.Status != sat.Unsat {
		t.Fatalf("twin step at k=2: %v, want UNSAT", r.Status)
	}
}

func TestStepFormulaSatisfiableForNonInductive(t *testing.T) {
	// The offset-counter's k=0 step must be SAT (the unreachable
	// pre-state exists in the unconstrained state space).
	u, err := unroll.New(offsetCounter(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := sat.New(u.StepInstance().Extend(0), sat.Options{}).Solve(); r.Status != sat.Sat {
		t.Fatalf("k=0 step: %v, want SAT", r.Status)
	}
}

func TestProveRejectsBadProperty(t *testing.T) {
	c := circuit.New("p")
	c.AddProperty("p", circuit.False)
	if _, err := engine.New(c, 7, engine.WithEngine(engine.KInduction), engine.WithBudgets(2, 0)); err == nil {
		t.Fatal("expected error for bad property index")
	}
}

// TestPortfolioAgreesWithSequentialInduction: racing the base and step
// queries must reproduce the sequential prover's status and depth on
// proved, falsified, and deeper-k models.
func TestPortfolioAgreesWithSequentialInduction(t *testing.T) {
	models := []struct {
		name  string
		build func() *circuit.Circuit
		maxK  int
	}{
		{"twin", func() *circuit.Circuit { return bench.Twin(8, 0, 0) }, 4},
		{"gcnt", func() *circuit.Circuit { return bench.GatedCounter(4, 10, 0, 0) }, 6},
		{"tlc_bug", func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) }, 4},
		{"pipe_s5_bug", func() *circuit.Circuit { return bench.Pipeline(5, 8, true) }, 8},
	}
	for _, m := range models {
		seq := prove(t, m.build(), 0, m.maxK)
		par := prove(t, m.build(), 0, m.maxK, engine.WithPortfolio(nil, 0))
		if par.Verdict != seq.Verdict || par.K != seq.K {
			t.Fatalf("%s: portfolio %v@%d vs sequential %v@%d",
				m.name, par.Verdict, par.K, seq.Verdict, seq.K)
		}
		if par.Verdict == engine.Falsified && par.Trace == nil {
			t.Fatalf("%s: falsified without trace", m.name)
		}
		// Every completed depth raced both queries.
		if len(par.BaseTelemetry.Depths) == 0 || len(par.StepTelemetry.Depths) == 0 {
			t.Fatalf("%s: telemetry empty (base %d, step %d depths)",
				m.name, len(par.BaseTelemetry.Depths), len(par.StepTelemetry.Depths))
		}
	}
}

// TestPortfolioInductionTimeaxisOnly: a timeaxis-containing subset must
// work on the step formula too (auxiliary variables unscored, no panic).
func TestPortfolioInductionTimeaxisOnly(t *testing.T) {
	res := prove(t, bench.GatedCounter(4, 10, 0, 0), 0, 6,
		engine.WithPortfolio(portfolio.StrategySet{core.OrderTimeAxis, core.OrderVSIDS}, 1))
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v, want proved", res.Verdict)
	}
}
