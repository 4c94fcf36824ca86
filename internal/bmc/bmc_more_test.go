package bmc_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

// failAt builds a width-bit all-ones window model failing at depth width.
func failAt(width int) *circuit.Circuit {
	c := circuit.New("failat")
	in := c.Input("in")
	w := c.LatchWord("w", width, 0)
	c.SetNextWord(w, c.ShiftLeft(w, in))
	c.AddProperty("full", c.AndReduce(w))
	return c
}

func TestPerDepthWallPopulated(t *testing.T) {
	res := check(t, failAt(4), engine.WithBudgets(6, 0))
	if res.Verdict != engine.Falsified || res.K != 4 {
		t.Fatalf("verdict %v at %d", res.Verdict, res.K)
	}
	var sum time.Duration
	for _, d := range res.PerDepth {
		if d.Wall <= 0 {
			t.Fatalf("depth %d: missing wall time", d.K)
		}
		sum += d.Wall
	}
	if sum > res.TotalTime+time.Millisecond {
		t.Fatalf("per-depth walls (%v) exceed the total (%v)", sum, res.TotalTime)
	}
}

func TestTimeAxisStrategyRuns(t *testing.T) {
	res := check(t, failAt(5), engine.WithBudgets(8, 0), engine.WithOrdering(core.OrderTimeAxis))
	if res.Verdict != engine.Falsified || res.K != 5 {
		t.Fatalf("time-axis run: %v at %d, want falsified at 5", res.Verdict, res.K)
	}
}

func TestRunRejectsBadProperty(t *testing.T) {
	c := circuit.New("one")
	c.AddProperty("p", circuit.False)
	if _, err := engine.New(c, 5, engine.WithBudgets(2, 0)); err == nil {
		t.Fatal("expected an error for a bad property index")
	}
}

// TestStaticAndDynamicDecisionsDivergeAfterSwitch: on a model where the
// dynamic strategy switches, its search must differ from static's — the
// observable effect of the fallback.
func TestStaticAndDynamicDecisionsDivergeAfterSwitch(t *testing.T) {
	m, ok := bench.ByName("add_w8")
	if !ok {
		t.Fatal("add_w8 missing")
	}
	st := check(t, m.Build(), engine.WithBudgets(4, 30000), engine.WithOrdering(core.OrderStatic))
	dy := check(t, m.Build(), engine.WithBudgets(4, 30000), engine.WithOrdering(core.OrderDynamic))
	if !dy.Total.GuidanceSwitched {
		t.Skip("dynamic did not switch at this scale")
	}
	if dy.Total.Decisions == st.Total.Decisions {
		t.Fatal("dynamic switched but searched identically to static")
	}
}

// TestTraceStatesMatchReplay: the extracted trace's recorded states must
// match the simulator's state trajectory under the trace inputs.
func TestTraceStatesMatchReplay(t *testing.T) {
	c := failAt(4)
	tr := check(t, c, engine.WithBudgets(6, 0), engine.WithOrdering(core.OrderVSIDS)).Trace
	if tr == nil {
		t.Fatal("no trace")
	}
	st := c.InitialState()
	for f := 0; f <= tr.Depth; f++ {
		for i, v := range st {
			if tr.States[f][i] != v {
				t.Fatalf("frame %d latch %d: trace %v, simulator %v", f, i, tr.States[f][i], v)
			}
		}
		if f < tr.Depth {
			st, _ = c.Step(st, tr.Inputs[f])
		}
	}
}

// TestFig7ShapeOnSuiteModel: on the designated Figure 7 model the refined
// ordering must reduce total decisions by at least 3x at modest depth —
// the qualitative claim behind the paper's log-scale gap.
func TestFig7ShapeOnSuiteModel(t *testing.T) {
	m, ok := bench.ByName(bench.Fig7Model)
	if !ok {
		t.Fatalf("%s missing", bench.Fig7Model)
	}
	base := check(t, m.Build(), engine.WithBudgets(7, 0), engine.WithOrdering(core.OrderVSIDS))
	ref := check(t, m.Build(), engine.WithBudgets(7, 0), engine.WithOrdering(core.OrderStatic))
	if base.Verdict != engine.Holds || ref.Verdict != engine.Holds {
		t.Fatalf("verdicts: %v / %v", base.Verdict, ref.Verdict)
	}
	if ref.Total.Decisions*3 > base.Total.Decisions {
		t.Fatalf("refined %d decisions vs baseline %d: expected at least 3x reduction",
			ref.Total.Decisions, base.Total.Decisions)
	}
}
