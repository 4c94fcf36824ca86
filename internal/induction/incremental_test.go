package induction_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// The racing k-induction shapes (sequential is prove's default): the
// cold portfolio and the warm pools.
var (
	coldPortfolio = []engine.Option{engine.WithPortfolio(nil, 0)}
	warmPools     = []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}
)

// TestStepDeltaEquisatisfiableWithStepFormula is the step encoding's
// defining property: a live solver accumulating unroll.StepDelta frames
// and solving under the depth's activation literal must reproduce the
// scratch step instance's satisfiability at every depth — across inductive
// (step UNSAT early), deeper-k (step SAT then UNSAT), and falsified
// models, and across several consecutive depths of one solver.
func TestStepDeltaEquisatisfiableWithStepFormula(t *testing.T) {
	models := []struct {
		name  string
		build func() *circuit.Circuit
		maxK  int
	}{
		{"twin", func() *circuit.Circuit { return bench.Twin(6, 0, 0) }, 4},
		{"gcnt", func() *circuit.Circuit { return bench.GatedCounter(4, 10, 0, 0) }, 4},
		{"gcnt_offset", offsetCounter, 8},
		{"tlc_bug", func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) }, 4},
	}
	for _, m := range models {
		u, err := unroll.New(m.build(), 0)
		if err != nil {
			t.Fatal(err)
		}
		sd := u.StepDelta()
		live := sat.New(cnf.New(0), sat.Options{})
		for k := 0; k <= m.maxK; k++ {
			frame := sd.Frame(k)
			live.AddVars(frame.NumVars)
			for _, cl := range frame.Clauses {
				live.AddClause(cl)
			}
			got := live.SolveAssuming([]lits.Lit{sd.ActLit(k)})
			want := sat.New(u.StepInstance().Extend(k), sat.Options{}).Solve()
			if got.Status != want.Status {
				t.Fatalf("%s depth %d: delta=%v scratch=%v", m.name, k, got.Status, want.Status)
			}
		}
	}
}

// TestWarmInductionMatchesSequentialAndPortfolio is the acceptance bar for
// the warm k-induction shape: it must report the same status and depth as
// the sequential prover and the cold portfolio on immediately inductive,
// deeper-k inductive, and falsified properties.
func TestWarmInductionMatchesSequentialAndPortfolio(t *testing.T) {
	for _, m := range []struct {
		name  string
		build func() *circuit.Circuit
		maxK  int
	}{
		{"twin", func() *circuit.Circuit { return bench.Twin(8, 0, 0) }, 4},
		{"gcnt", func() *circuit.Circuit { return bench.GatedCounter(4, 10, 0, 0) }, 6},
		{"gcnt_offset", offsetCounter, 16},
		{"tlc_bug", func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) }, 4},
		{"pipe_s5_bug", func() *circuit.Circuit { return bench.Pipeline(5, 8, true) }, 8},
	} {
		seq := prove(t, m.build(), 0, m.maxK)
		cold := prove(t, m.build(), 0, m.maxK, coldPortfolio...)
		if cold.Verdict != seq.Verdict || cold.K != seq.K {
			t.Fatalf("%s: cold portfolio %v@%d vs sequential %v@%d",
				m.name, cold.Verdict, cold.K, seq.Verdict, seq.K)
		}
		warm := prove(t, m.build(), 0, m.maxK, warmPools...)
		if !warm.Warm {
			t.Fatalf("%s: Warm flag not set", m.name)
		}
		if warm.Verdict != seq.Verdict || warm.K != seq.K {
			t.Fatalf("%s: warm %v@%d vs sequential %v@%d",
				m.name, warm.Verdict, warm.K, seq.Verdict, seq.K)
		}
		if warm.Verdict == engine.Falsified && warm.Trace == nil {
			t.Fatalf("%s: falsified without trace", m.name)
		}
		// Every completed depth raced the base query; the step races
		// split between observed and aborted ones.
		baseDepths := len(warm.BaseTelemetry.Depths)
		if baseDepths == 0 {
			t.Fatalf("%s: no base races observed", m.name)
		}
		if got := len(warm.StepTelemetry.Depths) + warm.StepTelemetry.AbortedRaces; got != baseDepths {
			t.Fatalf("%s: %d step races (observed+aborted), want %d",
				m.name, got, baseDepths)
		}
	}
}

// TestWarmInductionTightBudgetMatches: under a 1-conflict budget every
// shape hits the wall at the first depth whose queries need real search
// — where all solvers are still equally cold, so the Unknown status and
// the reported K must agree exactly. (Looser budgets can legitimately
// diverge: a warm solver may decide within a budget that stops a cold
// one, which is the warm pools' whole point.)
func TestWarmInductionTightBudgetMatches(t *testing.T) {
	build := func() *circuit.Circuit { return bench.AdderTwin(4, 6, 16) }
	budget := engine.WithBudgets(4, 1)
	seq := prove(t, build(), 0, 4, budget)
	if seq.Verdict != engine.Unknown {
		t.Fatalf("sequential verdict %v under a 1-conflict budget, want unknown", seq.Verdict)
	}
	for name, opts := range map[string][]engine.Option{"cold portfolio": coldPortfolio, "warm": warmPools} {
		res := prove(t, build(), 0, 4, append(opts, budget)...)
		if res.Verdict != seq.Verdict || res.K != seq.K {
			t.Fatalf("%s %v@%d vs sequential %v@%d", name, res.Verdict, res.K, seq.Verdict, seq.K)
		}
	}
}

// TestPortfolioDeadlineReportsLastAttemptedDepth is the regression test
// for the off-by-one: a deadline that expires before any depth is
// attempted must report K = -1 (no depth ran), not K = 0.
func TestPortfolioDeadlineReportsLastAttemptedDepth(t *testing.T) {
	for name, opts := range map[string][]engine.Option{
		"sequential": nil,
		"cold":       coldPortfolio,
		"warm":       {engine.WithPortfolio(nil, 0), engine.WithIncremental()},
	} {
		ctx, cancel := expired()
		res := proveCtx(t, ctx, bench.Twin(8, 0, 0), 0, 8, opts...)
		cancel()
		if res.Verdict != engine.Unknown {
			t.Fatalf("%s: verdict %v with an expired deadline, want unknown", name, res.Verdict)
		}
		if res.K != -1 {
			t.Fatalf("%s: K = %d with an expired deadline, want -1 (no depth ran)", name, res.K)
		}
		if res.BaseTelemetry != nil && len(res.BaseTelemetry.Depths) != 0 {
			t.Fatalf("%s: %d base races observed under an expired deadline", name, len(res.BaseTelemetry.Depths))
		}
	}
}

// TestPortfolioAbortedStepRacesNotCountedAsLosses is the regression test
// for the cancellation skew: the step race of a depth whose base case is
// SAT (or undecided) is cancelled deliberately, and must land in
// AbortedRaces — not in the per-strategy loss columns or the depth log.
func TestPortfolioAbortedStepRacesNotCountedAsLosses(t *testing.T) {
	for name, opts := range map[string][]engine.Option{"cold": coldPortfolio, "warm": warmPools} {
		res := prove(t, bench.TrafficLight(true, 0, 0), 0, 4, opts...)
		if res.Verdict != engine.Falsified {
			t.Fatalf("%s: verdict %v, want falsified", name, res.Verdict)
		}
		if res.StepTelemetry.AbortedRaces == 0 {
			t.Fatalf("%s: the falsifying depth's step race was not recorded as aborted", name)
		}
		// The aborted race must not appear in the depth log...
		base, step := len(res.BaseTelemetry.Depths), len(res.StepTelemetry.Depths)
		if step+res.StepTelemetry.AbortedRaces != base {
			t.Fatalf("%s: %d observed + %d aborted step races, want %d (base depths)",
				name, step, res.StepTelemetry.AbortedRaces, base)
		}
		// ...and must not have charged conflicts to any strategy's account.
		var observed int64
		for _, dw := range res.StepTelemetry.Depths {
			observed += dw.WinnerConflicts + dw.LoserConflicts
		}
		var spent int64
		for _, n := range res.StepTelemetry.ConflictsSpent {
			spent += n
		}
		if spent != observed {
			t.Fatalf("%s: ConflictsSpent %d != observed-race conflicts %d (aborted races leaked in)",
				name, spent, observed)
		}
	}
}

// TestWarmInductionTimeaxisOnly: the step pool's time-axis guidance must
// classify every step-delta variable (auxiliaries unscored) without
// panicking, and still prove the deeper-k model.
func TestWarmInductionTimeaxisOnly(t *testing.T) {
	res := prove(t, bench.GatedCounter(4, 10, 0, 0), 0, 6, engine.WithIncremental(),
		engine.WithPortfolio(portfolio.StrategySet{core.OrderTimeAxis, core.OrderVSIDS}, 1))
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v, want proved", res.Verdict)
	}
}

// TestStepFormulaHonorsPropertyIndex is the regression test for the
// hardcoded property 0: with a 0-inductive property 0 and a genuinely
// reachable property 1, a shape that builds step instances for the
// wrong property would return an unsound Proved@0 for property 1 (base
// UNSAT at k=0, wrong-step UNSAT at k=0). Every shape must falsify
// property 1 at its real counter-example depth instead.
func TestStepFormulaHonorsPropertyIndex(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New("two_props")
		en := c.Input("en")
		w := c.LatchWord("cnt", 4, 0)
		inc, _ := c.IncWord(w)
		wrap := c.EqConst(w, 9)
		bump := c.MuxWord(wrap, c.ConstWord(4, 0), inc)
		c.SetNextWord(w, c.MuxWord(en, bump, w))
		// Property 0: the wrap gap value 10 is unreachable AND 0-inductive
		// (10 has no predecessor: 9 wraps to 0, 10 keeps itself only if
		// already there). Property 1: value 5 is plainly reachable.
		c.AddProperty("unreachable", c.EqConst(w, 10))
		c.AddProperty("reachable", c.EqConst(w, 5))
		return c
	}
	for name, opts := range map[string][]engine.Option{
		"sequential": nil,
		"cold":       coldPortfolio,
		"warm":       {engine.WithPortfolio(nil, 0), engine.WithIncremental()},
	} {
		res := prove(t, build(), 1, 8, opts...)
		if res.Verdict != engine.Falsified || res.K != 5 {
			t.Fatalf("%s: %v@%d for the reachable property, want falsified@5", name, res.Verdict, res.K)
		}
	}
	// Property 0 must still prove immediately.
	if p0 := prove(t, build(), 0, 8); p0.Verdict != engine.Proved {
		t.Fatalf("property 0: %v, want proved", p0.Verdict)
	}
}
