package bench

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// checkBMC model-checks m to the given depth under one ordering.
func checkBMC(t *testing.T, m Model, depth int, st core.Strategy) *engine.Result {
	t.Helper()
	sess, err := engine.New(m.Build(), 0, engine.WithBudgets(depth, 0), engine.WithOrdering(st))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSuiteShape(t *testing.T) {
	ms := Suite()
	if len(ms) != 37 {
		t.Fatalf("suite has %d models, want 37", len(ms))
	}
	seen := map[string]bool{}
	nFail := 0
	for i, m := range ms {
		if m.Index != i+1 {
			t.Errorf("%s: index %d != position %d", m.Name, m.Index, i+1)
		}
		if seen[m.Name] {
			t.Errorf("duplicate model name %s", m.Name)
		}
		seen[m.Name] = true
		if m.MaxDepth <= 0 {
			t.Errorf("%s: MaxDepth missing", m.Name)
		}
		if m.ExpectFail {
			nFail++
			if m.FailDepth <= 0 || m.FailDepth > m.MaxDepth {
				t.Errorf("%s: FailDepth %d outside (0, MaxDepth=%d]", m.Name, m.FailDepth, m.MaxDepth)
			}
		}
	}
	if nFail < 8 || nFail > 20 {
		t.Errorf("failing-model count %d out of the paper-like range", nFail)
	}
	if _, ok := ByName(Fig7Model); !ok {
		t.Errorf("Fig7Model %q not in suite", Fig7Model)
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, m := range Suite() {
		c := m.Build()
		if err := c.Validate(true); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if c.NumInputs() == 0 {
			t.Errorf("%s: no primary inputs (instances would be BCP-trivial)", m.Name)
		}
	}
}

func TestBuildersAreDeterministic(t *testing.T) {
	for _, m := range Suite() {
		c1, c2 := m.Build(), m.Build()
		if c1.NumNodes() != c2.NumNodes() || c1.NumLatches() != c2.NumLatches() {
			t.Errorf("%s: nondeterministic build", m.Name)
		}
	}
}

func TestFailingModelsFailAtDeclaredDepth(t *testing.T) {
	for _, m := range Suite() {
		if !m.ExpectFail {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			res := checkBMC(t, m, m.FailDepth, core.OrderVSIDS)
			if res.Verdict != engine.Falsified || res.K != m.FailDepth {
				t.Fatalf("verdict=%v depth=%d, want falsified at %d", res.Verdict, res.K, m.FailDepth)
			}
		})
	}
}

func TestPassingModelsHoldAtShallowDepths(t *testing.T) {
	const testDepth = 5 // keep the full-suite test fast; experiments go deeper
	for _, m := range Suite() {
		if m.ExpectFail {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			res := checkBMC(t, m, testDepth, core.OrderVSIDS)
			if res.Verdict != engine.Holds {
				t.Fatalf("verdict=%v at depth %d, want holds", res.Verdict, res.K)
			}
		})
	}
}

func TestRefinedStrategiesAgreeOnSample(t *testing.T) {
	// A cross-strategy agreement check on a sample of models (the full
	// matrix runs in the experiments harness).
	names := []string{"cnt_w4_t9", "lock_s8", "twin_w8", "gcnt_m10", "pipe_s5_bug", "prod_t6"}
	for _, name := range names {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("model %s missing", name)
		}
		depth := m.MaxDepth
		if depth > 8 {
			depth = 8
		}
		var base *engine.Result
		for _, st := range []core.Strategy{core.OrderVSIDS, core.OrderStatic, core.OrderDynamic} {
			res := checkBMC(t, m, depth, st)
			if base == nil {
				base = res
				continue
			}
			if res.Verdict != base.Verdict || res.K != base.K {
				t.Errorf("%s: %v disagrees with baseline (%v@%d vs %v@%d)",
					name, st, res.Verdict, res.K, base.Verdict, base.K)
			}
		}
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("no_such_model"); ok {
		t.Errorf("ByName must fail for unknown models")
	}
}
