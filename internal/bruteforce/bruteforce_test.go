package bruteforce

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
)

func TestSolveSat(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	f.Add(-1, 2)
	sat, model, err := Solve(f)
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if !f.Satisfied(model) {
		t.Errorf("returned model does not satisfy formula")
	}
}

func TestSolveUnsat(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	f.Add(-1)
	sat, _, err := Solve(f)
	if err != nil || sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
}

func TestCountModels(t *testing.T) {
	// x1 | x2 has 3 models over 2 vars.
	f := cnf.New(2)
	f.Add(1, 2)
	n, err := CountModels(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("CountModels=%d, want 3", n)
	}
}

func TestCountModelsEmptyFormula(t *testing.T) {
	f := cnf.New(3)
	n, err := CountModels(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("empty formula over 3 vars should have 8 models, got %d", n)
	}
}

func TestTooLarge(t *testing.T) {
	f := cnf.New(MaxVars + 1)
	if _, _, err := Solve(f); err == nil {
		t.Errorf("expected size error")
	}
	if _, err := CountModels(f); err == nil {
		t.Errorf("expected size error")
	}
}

// TestReach pins the reachability reference on circuits whose answers are
// known by hand: the first bad depth, a bound that stops short of it, a
// reachable set that closes, and the size limit.
func TestReach(t *testing.T) {
	counter := circuit.New("cnt2") // counts 0, 1, 2, 3, ...; bad at 3
	b0, b1 := counter.Latch("b0", false), counter.Latch("b1", false)
	counter.SetNext(b0, b0.Not())
	counter.SetNext(b1, counter.Xor(b1, b0))
	counter.AddProperty("p", counter.And(b0, b1))

	stuck := circuit.New("stuck") // one state, never bad
	l := stuck.Latch("l", false)
	stuck.SetNext(l, l)
	stuck.AddProperty("p", l)

	follow := circuit.New("follow") // the latch takes the input: bad at 1
	m := follow.Latch("m", false)
	follow.SetNext(m, follow.Input("in"))
	follow.AddProperty("p", m)

	for _, tc := range []struct {
		c        *circuit.Circuit
		maxDepth int
		firstBad int
		closed   bool
	}{
		{counter, 8, 3, false},
		{counter, 2, -1, false},
		{stuck, 8, -1, true},
		{stuck, 0, -1, false}, // closing is only seen at depth 1
		{follow, 8, 1, false},
	} {
		firstBad, closed, err := Reach(tc.c, 0, tc.maxDepth)
		if err != nil || firstBad != tc.firstBad || closed != tc.closed {
			t.Errorf("Reach(%s, %d) = %d, %v, %v; want %d, %v", tc.c.Name(), tc.maxDepth, firstBad, closed, err, tc.firstBad, tc.closed)
		}
	}

	wide := circuit.New("wide") // nine inputs: more than Reach enumerates
	w := wide.Latch("w", false)
	next := w
	for i := 0; i < 9; i++ {
		next = wide.And(next, wide.Input("in"))
	}
	wide.SetNext(w, next)
	wide.AddProperty("p", w)
	if _, _, err := Reach(wide, 0, 8); err == nil {
		t.Error("Reach accepted a circuit with nine inputs")
	}
}
