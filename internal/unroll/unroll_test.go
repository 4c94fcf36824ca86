package unroll

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

// counterCircuit builds a width-bit counter with bad = (count == target).
func counterCircuit(width int, target uint64) *circuit.Circuit {
	c := circuit.New("ctr")
	w := c.LatchWord("cnt", width, 0)
	next, _ := c.IncWord(w)
	c.SetNextWord(w, next)
	c.AddProperty("hit", c.EqConst(w, target))
	return c
}

func TestNewValidates(t *testing.T) {
	c := circuit.New("bad")
	c.Latch("l", false)
	if _, err := New(c, 0); err == nil {
		t.Errorf("invalid circuit must be rejected")
	}
	c2 := counterCircuit(3, 5)
	if _, err := New(c2, 1); err == nil {
		t.Errorf("out-of-range property must be rejected")
	}
}

func TestVarNumberingRoundTrip(t *testing.T) {
	c := counterCircuit(4, 9)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[lits.Var]bool{}
	for frame := 0; frame < 5; frame++ {
		for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
			v := u.VarFor(n, frame)
			if seen[v] {
				t.Fatalf("variable %v reused", v)
			}
			seen[v] = true
			n2, f2 := u.NodeOf(v)
			if n2 != n || f2 != frame {
				t.Fatalf("NodeOf(VarFor(%d,%d)) = (%d,%d)", n, frame, n2, f2)
			}
		}
	}
	if len(seen) != 5*u.Stride() {
		t.Fatalf("expected dense coverage")
	}
}

func TestFrameStability(t *testing.T) {
	// The same node/frame pair must map to the same variable regardless of
	// instance depth — the property score transfer relies on.
	c := counterCircuit(3, 5)
	u, _ := New(c, 0)
	n := c.Latches()[0]
	v1 := u.VarFor(n, 2)
	// Rebuild an unroller (fresh instance, same circuit): same mapping.
	u2, _ := New(c, 0)
	if u2.VarFor(n, 2) != v1 {
		t.Fatalf("variable numbering not stable across unrollers")
	}
}

func TestCounterSatExactlyAtTarget(t *testing.T) {
	c := counterCircuit(3, 5)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 7; k++ {
		f := u.Formula(k)
		res := sat.New(f, sat.Options{}).Solve()
		wantSat := k == 5
		if (res.Status == sat.Sat) != wantSat {
			t.Errorf("depth %d: status=%v, want sat=%v", k, res.Status, wantSat)
		}
		if res.Status == sat.Sat {
			if err := sat.VerifyModel(f, res.Model); err != nil {
				t.Fatalf("depth %d: %v", k, err)
			}
			tr := u.ExtractTrace(res.Model, k)
			if !u.Replay(tr) {
				t.Errorf("depth %d: trace replay does not hit bad state", k)
			}
		}
	}
}

func TestTraceShape(t *testing.T) {
	c := circuit.New("io")
	in := c.Input("in")
	l := c.Latch("l", false)
	c.SetNext(l, in)
	c.AddProperty("bad", l)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := u.Formula(3)
	res := sat.New(f, sat.Options{}).Solve()
	if res.Status != sat.Sat {
		t.Fatalf("status=%v", res.Status)
	}
	tr := u.ExtractTrace(res.Model, 3)
	if tr.Depth != 3 || len(tr.Inputs) != 4 || len(tr.States) != 4 {
		t.Fatalf("trace shape wrong: %+v", tr)
	}
	if !u.Replay(tr) {
		t.Errorf("replay must reach bad state")
	}
	// The latch copies the previous input, so input at frame 2 must be 1.
	if !tr.Inputs[2][0] {
		t.Errorf("decoded input sequence inconsistent with counter-example")
	}
}

func TestConstantBadTrue(t *testing.T) {
	c := circuit.New("t")
	l := c.Latch("l", false)
	c.SetNext(l, l)
	c.AddProperty("always", circuit.True)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sat.New(u.Formula(0), sat.Options{}).Solve()
	if res.Status != sat.Sat {
		t.Errorf("constant-true bad must be SAT, got %v", res.Status)
	}
}

func TestConstantBadFalse(t *testing.T) {
	c := circuit.New("t")
	l := c.Latch("l", false)
	c.SetNext(l, l)
	c.AddProperty("never", circuit.False)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sat.New(u.Formula(2), sat.Options{}).Solve()
	if res.Status != sat.Unsat {
		t.Errorf("constant-false bad must be UNSAT, got %v", res.Status)
	}
}

func TestConstantLatchNext(t *testing.T) {
	// Latch driven to constant 1: bad = !latch, so only frame 0 (init 0)
	// can fail.
	c := circuit.New("t")
	l := c.Latch("l", false)
	c.SetNext(l, circuit.True)
	c.AddProperty("low", l.Not())
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := sat.New(u.Formula(0), sat.Options{}).Solve(); res.Status != sat.Sat {
		t.Errorf("depth 0 should fail (latch init 0), got %v", res.Status)
	}
	if res := sat.New(u.Formula(1), sat.Options{}).Solve(); res.Status != sat.Unsat {
		t.Errorf("depth 1 should hold (latch forced 1), got %v", res.Status)
	}
}

// buildRandomCircuit constructs a random sequential circuit (same shape as
// the aiger test helper).
func buildRandomCircuit(rng *rand.Rand) *circuit.Circuit {
	c := circuit.New("rand")
	pool := []circuit.Signal{}
	nIn := rng.Intn(3) + 1
	for i := 0; i < nIn; i++ {
		pool = append(pool, c.Input("in"))
	}
	nLatch := rng.Intn(3) + 1
	var latches []circuit.Signal
	for i := 0; i < nLatch; i++ {
		l := c.Latch("l", rng.Intn(2) == 0)
		latches = append(latches, l)
		pool = append(pool, l)
	}
	for i := 0; i < rng.Intn(15)+5; i++ {
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
	c.AddProperty("bad", pool[len(pool)-1])
	return c
}

// TestEncodingMatchesSimulation is the central encoding soundness check:
// with all inputs pinned to concrete values, the CNF must be satisfiable
// and every node variable in the model must equal the simulator's value.
func TestEncodingMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 50; iter++ {
		c := buildRandomCircuit(rng)
		u, err := New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(5)
		f := u.Formula(k)

		// Pin inputs; drop the property clause by rebuilding without it:
		// instead, just add input pins to a copy of all clauses except the
		// final property unit. Simpler: build the formula, remove nothing,
		// and instead pin inputs on a fresh formula containing the same
		// clauses minus the last (property) clause when the bad signal is
		// non-constant.
		g := cnf.New(f.NumVars)
		clauses := f.NumClauses()
		bad := c.Properties()[0].Bad
		if !bad.IsConst() {
			clauses--
		}
		for i := range clauses {
			g.AddClause(f.Clause(i))
		}
		seq := make([][]bool, k+1)
		for frame := 0; frame <= k; frame++ {
			in := make([]bool, c.NumInputs())
			for i, id := range c.Inputs() {
				in[i] = rng.Intn(2) == 0
				g.AddUnit(lits.MkLit(u.VarFor(id, frame), !in[i]))
			}
			seq[frame] = in
		}

		res := sat.New(g, sat.Options{}).Solve()
		if res.Status != sat.Sat {
			t.Fatalf("iter %d: pinned-input instance must be SAT, got %v", iter, res.Status)
		}

		// Compare every node value per frame against simulation.
		st := c.InitialState()
		for frame := 0; frame <= k; frame++ {
			vals := c.Eval(st, seq[frame])
			for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
				got := res.Model.Value(u.VarFor(n, frame)).IsTrue()
				want := circuit.SignalValue(vals, circuit.MkSignal(n, false))
				if got != want {
					t.Fatalf("iter %d frame %d node n%d (%v): model=%v sim=%v",
						iter, frame, n, c.Kind(n), got, want)
				}
			}
			next := make(circuit.State, c.NumLatches())
			for i, id := range c.Latches() {
				next[i] = circuit.SignalValue(vals, c.LatchNext(id))
			}
			st = next
		}
	}
}

func TestAbstractModel(t *testing.T) {
	c := counterCircuit(3, 5)
	u, _ := New(c, 0)
	// Variables of latch 0 in frames 0 and 3 plus an AND node.
	l0 := c.Latches()[0]
	vars := []lits.Var{u.VarFor(l0, 0), u.VarFor(l0, 3)}
	nodes := u.AbstractModel(vars)
	if len(nodes) != 1 || nodes[0] != l0 {
		t.Fatalf("abstract model should collapse frames: %v", nodes)
	}
}

func TestFormulaGrowsLinearly(t *testing.T) {
	c := counterCircuit(4, 9)
	u, _ := New(c, 0)
	f1 := u.Formula(1)
	f2 := u.Formula(2)
	f3 := u.Formula(3)
	d12 := f2.NumClauses() - f1.NumClauses()
	d23 := f3.NumClauses() - f2.NumClauses()
	if d12 != d23 {
		t.Errorf("per-frame clause growth not constant: %d vs %d", d12, d23)
	}
	if f2.NumVars-f1.NumVars != u.Stride() {
		t.Errorf("per-frame variable growth must equal stride")
	}
}

// TestFormulaClauseListSizedOnce: Formula and a new step instance's
// Extend(k) are an instance's first extension, which allocates the literals and the clause ends at
// exactly their sizes — constant next states, which take one clause instead
// of two, included. An array with capacity to spare was sized by a bound;
// one regrown by append would have some too.
func TestFormulaClauseListSizedOnce(t *testing.T) {
	constNext := circuit.New("const-next")
	l := constNext.Latch("l", false)
	m := constNext.Latch("m", false)
	constNext.SetNext(l, circuit.True)
	constNext.SetNext(m, constNext.And(l, m.Not()))
	constNext.AddProperty("p", constNext.And(l, m))

	for _, c := range []*circuit.Circuit{counterCircuit(4, 9), constNext} {
		u, err := New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 4; k++ {
			for name, f := range map[string]*cnf.Formula{"Formula": u.Formula(k), "StepInstance": u.StepInstance().Extend(k)} {
				if cap(f.Ends) != len(f.Ends) || cap(f.Lits) != len(f.Lits) {
					t.Errorf("%s: %s(%d) has %d clauses and %d literals in capacities %d and %d",
						c.Name(), name, k, len(f.Ends), len(f.Lits), cap(f.Ends), cap(f.Lits))
				}
			}
		}
	}
}
