package unroll

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

// propRng is a deterministic xorshift generator.
type propRng uint64

func (r *propRng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = propRng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *propRng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomCircuit builds a random sequential circuit with nIn inputs, nLatch
// latches, and nGates random AND/XOR/MUX gates; the property is a random
// signal (any value is fine — these tests compare against the simulator,
// not a ground truth).
func randomCircuit(seed uint64, nIn, nLatch, nGates int) *circuit.Circuit {
	r := propRng(seed | 1)
	c := circuit.New("rand")
	pool := []circuit.Signal{circuit.True, circuit.False}
	for i := 0; i < nIn; i++ {
		pool = append(pool, c.Input("in"))
	}
	latches := make([]circuit.Signal, nLatch)
	for i := range latches {
		latches[i] = c.Latch("l", r.intn(2) == 0)
		pool = append(pool, latches[i])
	}
	pick := func() circuit.Signal {
		s := pool[r.intn(len(pool))]
		if r.intn(2) == 0 {
			s = s.Not()
		}
		return s
	}
	for g := 0; g < nGates; g++ {
		var s circuit.Signal
		switch r.intn(3) {
		case 0:
			s = c.And(pick(), pick())
		case 1:
			s = c.Xor(pick(), pick())
		default:
			s = c.Mux(pick(), pick(), pick())
		}
		pool = append(pool, s)
	}
	for _, l := range latches {
		c.SetNext(l, pick())
	}
	c.AddProperty("p", pick())
	return c
}

// TestPropertyUnrollingMatchesSimulator: for random circuits and random
// input sequences, constraining the unrolled CNF with the input values must
// be satisfiable exactly when it should be (it always is — inputs determine
// everything) and the model must agree with the simulator on the property
// value, which we force via the final ¬P clause: the instance is SAT iff
// the simulator reports bad at the last frame.
func TestPropertyUnrollingMatchesSimulator(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		c := randomCircuit(seed*0x9E3779B97F4A7C15, 3, 4, 14)
		u, err := New(c, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := propRng(seed * 77)
		for _, k := range []int{0, 1, 3, 5} {
			seq := make([][]bool, k+1)
			for f := range seq {
				row := make([]bool, c.NumInputs())
				for i := range row {
					row[i] = r.intn(2) == 0
				}
				seq[f] = row
			}
			f := u.Formula(k)
			g := f.Copy()
			// Pin the inputs to the drawn sequence.
			for frame := 0; frame <= k; frame++ {
				for i, in := range c.Inputs() {
					v := u.VarFor(in, frame)
					g.AddUnit(lits.MkLit(v, !seq[frame][i]))
				}
			}
			res := sat.New(g, sat.Options{}).Solve()
			bads := c.Simulate(seq, 0)
			wantSat := bads[k]
			if wantSat && res.Status != sat.Sat {
				t.Fatalf("seed %d k=%d: simulator says bad, CNF %v", seed, k, res.Status)
			}
			if !wantSat && res.Status != sat.Unsat {
				t.Fatalf("seed %d k=%d: simulator says safe, CNF %v", seed, k, res.Status)
			}
		}
	}
}

// TestPropertyFrameStableNumbering: the variable of (node, frame) never
// depends on the unrolling depth — the invariant the paper's score
// transfer rests on.
func TestPropertyFrameStableNumbering(t *testing.T) {
	c := randomCircuit(0xABCDEF, 3, 5, 12)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame <= 6; frame++ {
		for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
			v := u.VarFor(n, frame)
			node, fr := u.NodeOf(v)
			if node != n || fr != frame {
				t.Fatalf("round trip failed: (%d,%d) -> %d -> (%d,%d)", n, frame, v, node, fr)
			}
		}
	}
}

// TestPropertyFormulaGrowsMonotonically: the length-k instance is a subset
// of the length-(k+1) instance except for its final property clause — the
// superset relationship (under frame-stable numbering) that lets scores
// transfer between instances.
func TestPropertyFormulaGrowsMonotonically(t *testing.T) {
	key := func(c cnf.Clause) string {
		out := make([]byte, 0, 4*len(c))
		for _, l := range c {
			out = append(out, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
		}
		return string(out)
	}
	c := randomCircuit(0x13579B, 2, 4, 10)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := u.Formula(0)
	for k := 1; k <= 5; k++ {
		cur := u.Formula(k)
		if cur.NumClauses() < prev.NumClauses() {
			t.Fatalf("k=%d: clause count shrank (%d -> %d)", k, prev.NumClauses(), cur.NumClauses())
		}
		have := make(map[string]int, cur.NumClauses())
		for _, cl := range cur.Clauses {
			have[key(cl)]++
		}
		// Every clause of the previous instance except its final property
		// unit must reappear identically.
		for i := 0; i < prev.NumClauses()-1; i++ {
			if have[key(prev.Clause(i))] == 0 {
				t.Fatalf("k=%d: clause %d of the depth-%d instance vanished (%v)",
					k, i, k-1, prev.Clause(i))
			}
		}
		prev = cur
	}
}

// TestPropertyTraceRoundTrip: on failing suite-style models, the extracted
// trace must replay, and re-encoding the trace as units must keep the
// instance satisfiable.
func TestPropertyTraceRoundTrip(t *testing.T) {
	c := circuit.New("cex")
	in := c.Input("in")
	w := c.LatchWord("w", 4, 0)
	c.SetNextWord(w, c.ShiftLeft(w, in))
	c.AddProperty("full", c.AndReduce(w))

	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	f := u.Formula(k)
	res := sat.New(f, sat.Options{}).Solve()
	if res.Status != sat.Sat {
		t.Fatalf("expected SAT at depth %d, got %v", k, res.Status)
	}
	tr := u.ExtractTrace(res.Model, k)
	if tr.Depth != k || len(tr.Inputs) != k+1 {
		t.Fatalf("trace shape: depth=%d inputs=%d", tr.Depth, len(tr.Inputs))
	}
	if !u.Replay(tr) {
		t.Fatal("trace failed replay")
	}
	// Tampering with the trace must break replay (the window needs all
	// ones; force a zero early).
	tr.Inputs[1][0] = false
	if u.Replay(tr) {
		t.Fatal("tampered trace still replays")
	}
}

// TestPropertyAbstractModelCoversCoreVars: every core variable's node is in
// the abstract model, and the abstract model contains no node whose
// variables are all absent from the core.
func TestPropertyAbstractModelCoversCoreVars(t *testing.T) {
	c := randomCircuit(0x2468AC, 3, 4, 12)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	vars := []lits.Var{u.VarFor(1, 0), u.VarFor(2, 1), u.VarFor(1, 2)}
	nodes := u.AbstractModel(vars)
	want := map[circuit.NodeID]bool{1: true, 2: true}
	got := map[circuit.NodeID]bool{}
	for _, n := range nodes {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("abstract model missing node %d (have %v)", n, nodes)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("abstract model has extra nodes: %v", nodes)
	}
}

// TestUnrollerRejectsBadInput: structural validation errors.
func TestUnrollerRejectsBadInput(t *testing.T) {
	c := circuit.New("noprop")
	c.Input("in")
	if _, err := New(c, 0); err == nil {
		t.Fatal("expected an error for a circuit without properties")
	}

	c2 := circuit.New("badidx")
	c2.AddProperty("p", circuit.False)
	if _, err := New(c2, 3); err == nil {
		t.Fatal("expected an error for an out-of-range property index")
	}

	c3 := circuit.New("dangling")
	l := c3.Latch("l", false)
	c3.AddProperty("p", l)
	if _, err := New(c3, 0); err == nil {
		t.Fatal("expected an error for a latch without a next function")
	}
}

// TestFormulaVariableBounds: no clause may mention a variable outside the
// declared range (would corrupt solver indexing).
func TestFormulaVariableBounds(t *testing.T) {
	for seed := uint64(50); seed < 70; seed++ {
		c := randomCircuit(seed*0xC2B2AE3D27D4EB4F, 2, 3, 9)
		u, err := New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 2, 4} {
			f := u.Formula(k)
			for i, cl := range f.Clauses {
				if int(cl.MaxVar()) > f.NumVars {
					t.Fatalf("seed %d k=%d clause %d: var %d > numVars %d",
						seed, k, i, cl.MaxVar(), f.NumVars)
				}
			}
			_ = cnf.Clause(nil)
		}
	}
}
