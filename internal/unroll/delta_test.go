package unroll

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

func TestDeltaNumbering(t *testing.T) {
	c := counterCircuit(3, 5)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Delta()
	stride := u.Stride() + 1 // a frame's nodes and its activation slot
	for k := 0; k < 4; k++ {
		if got := d.NumVars(k); got != stride*(k+1) {
			t.Errorf("NumVars(%d)=%d", k, got)
		}
		av := d.ActLit(k).Var()
		if int(av) != stride*(k+1) {
			t.Errorf("act %d is variable %d, want %d", k, av, stride*(k+1))
		}
		if frame, aux := d.VarInfo(av); !aux || frame != k {
			t.Errorf("VarInfo(act %d) = (%d,%v)", k, frame, aux)
		}
	}
	// Every node variable of a few frames is its frame's, in order.
	for frame := 0; frame < 3; frame++ {
		for n := circuit.NodeID(1); int(n) < c.NumNodes(); n++ {
			v := d.VarFor(n, frame)
			if want := lits.Var(1 + frame*stride + int(n) - 1); v != want {
				t.Fatalf("VarFor(%v,%d) = %d, want %d", n, frame, v, want)
			}
			if gf, aux := d.VarInfo(v); aux || gf != frame {
				t.Fatalf("VarInfo(VarFor(%v,%d)) = (%d,%v)", n, frame, gf, aux)
			}
		}
	}
}

// TestDeltaFramesMatchFormula is the delta API's defining property: the
// union of Frame(0..k) with actₖ assumed must be equisatisfiable with the
// scratch Formula(k), for every k, on both failing and passing circuits
// and on random sequential circuits.
func TestDeltaFramesMatchFormula(t *testing.T) {
	circuits := []*circuit.Circuit{
		counterCircuit(3, 5), // counter-example at depth 5
		counterCircuit(4, 0), // counter-example at depth 0
	}
	for seed := uint64(0); seed < 6; seed++ {
		circuits = append(circuits, randomCircuit(seed, 2, 3, 12))
	}
	for ci, c := range circuits {
		u, err := New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := u.Delta()
		union := cnf.New(0)
		for k := 0; k <= 7; k++ {
			for _, cl := range d.Frame(k).Clauses {
				union.AddClause(cl)
			}
			inc := sat.New(union.Copy(), sat.Options{}).SolveAssuming([]lits.Lit{d.ActLit(k)})
			scratch := sat.New(u.Formula(k), sat.Options{}).Solve()
			if inc.Status != scratch.Status {
				t.Fatalf("circuit %d depth %d: delta=%v scratch=%v", ci, k, inc.Status, scratch.Status)
			}
			if inc.Status == sat.Sat {
				// The decoded trace must replay on the simulator.
				tr := d.ExtractTrace(inc.Model, k)
				if !u.Replay(tr) {
					t.Fatalf("circuit %d depth %d: delta trace failed replay", ci, k)
				}
			}
		}
	}
}

// TestDeltaActivationGuardAcrossDepths drives one live solver through
// five consecutive depths of a counter that hits its target at depth 5,
// checking the activation-literal protocol at every step: assuming the
// current depth's literal reproduces the scratch verdict, and re-assuming
// any retired guard (its ¬actⱼ unit arrived with frame j+1) fails
// immediately with exactly that guard among the failed assumptions.
func TestDeltaActivationGuardAcrossDepths(t *testing.T) {
	c := counterCircuit(3, 5)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Delta()
	s := sat.New(cnf.New(0), sat.Options{})
	for k := 0; k <= 5; k++ {
		frame := d.Frame(k)
		s.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			s.AddClause(cl)
		}
		r := s.SolveAssuming([]lits.Lit{d.ActLit(k)})
		want := sat.Unsat
		if k == 5 {
			want = sat.Sat
		}
		if r.Status != want {
			t.Fatalf("depth %d: status %v, want %v", k, r.Status, want)
		}
		// Every retired guard must now be refuted by its unit, while the
		// current depth stays re-solvable afterwards (the solver survives
		// the failed-assumption analysis).
		for j := 0; j < k; j++ {
			rj := s.SolveAssuming([]lits.Lit{d.ActLit(j)})
			if rj.Status != sat.Unsat {
				t.Fatalf("depth %d: retired act(%d) still satisfiable: %v", k, j, rj.Status)
			}
			found := false
			for _, l := range rj.FailedAssumptions {
				if l == d.ActLit(j) {
					found = true
				}
			}
			if !found {
				t.Fatalf("depth %d: act(%d) missing from failed assumptions %v", k, j, rj.FailedAssumptions)
			}
		}
		// The current depth must still answer the same after the retired
		// probes (UNSAT under assumptions is not sticky).
		if r2 := s.SolveAssuming([]lits.Lit{d.ActLit(k)}); r2.Status != want {
			t.Fatalf("depth %d: re-solve gave %v, want %v", k, r2.Status, want)
		}
	}
}

// TestDeltaExtractTraceIncremental checks the decoded counter-example of
// an incremental solve in detail. The counter circuit has no inputs, so
// its execution is unique: the state of frame f must decode (LSB-first
// latch words) to the counter value f, and the trace must replay.
func TestDeltaExtractTraceIncremental(t *testing.T) {
	for _, tc := range []struct {
		width  int
		target uint64
	}{
		{3, 5},
		{4, 9},
	} {
		c := counterCircuit(tc.width, tc.target)
		u, err := New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := u.Delta()
		s := sat.New(cnf.New(0), sat.Options{})
		for k := 0; k <= int(tc.target); k++ {
			frame := d.Frame(k)
			s.AddVars(frame.NumVars)
			for _, cl := range frame.Clauses {
				s.AddClause(cl)
			}
			r := s.SolveAssuming([]lits.Lit{d.ActLit(k)})
			if k < int(tc.target) {
				if r.Status != sat.Unsat {
					t.Fatalf("w=%d depth %d: %v, want Unsat", tc.width, k, r.Status)
				}
				continue
			}
			if r.Status != sat.Sat {
				t.Fatalf("w=%d depth %d: %v, want Sat", tc.width, k, r.Status)
			}
			tr := d.ExtractTrace(r.Model, k)
			if tr.Depth != k {
				t.Fatalf("trace depth %d, want %d", tr.Depth, k)
			}
			if len(tr.Inputs) != k+1 || len(tr.States) != k+1 {
				t.Fatalf("trace has %d input / %d state frames, want %d", len(tr.Inputs), len(tr.States), k+1)
			}
			for f, st := range tr.States {
				if len(st) != tc.width {
					t.Fatalf("frame %d: %d latches, want %d", f, len(st), tc.width)
				}
				var val uint64
				for i, b := range st {
					if b {
						val |= 1 << uint(i)
					}
				}
				if val != uint64(f) {
					t.Fatalf("w=%d frame %d: state decodes to %d, want %d", tc.width, f, val, f)
				}
			}
			if !u.Replay(tr) {
				t.Fatalf("w=%d: trace failed replay", tc.width)
			}
			// The delta trace must agree with the scratch instance's
			// trace on this input-free circuit (unique execution).
			scratch := sat.New(u.Formula(k), sat.Options{}).Solve()
			if scratch.Status != sat.Sat {
				t.Fatalf("scratch depth %d: %v", k, scratch.Status)
			}
			str := u.ExtractTrace(scratch.Model, k)
			for f := range tr.States {
				for i := range tr.States[f] {
					if tr.States[f][i] != str.States[f][i] {
						t.Fatalf("w=%d frame %d latch %d: delta %v vs scratch %v",
							tc.width, f, i, tr.States[f][i], str.States[f][i])
					}
				}
			}
		}
	}
}

// TestDeltaTraceWithInputs extracts a trace on a circuit WITH primary
// inputs (the gated counter fails only if the solver finds the right
// enable sequence) across three consecutive SAT depths: once the target
// is reachable it stays reachable at every deeper depth, and each depth's
// trace must replay.
func TestDeltaTraceWithInputs(t *testing.T) {
	// 2-bit counter with an enable input, target 2: shortest witness has
	// length 2, and any longer prefix with enough enables also works.
	c := circuit.New("gated")
	en := c.Input("en")
	w := c.LatchWord("cnt", 2, 0)
	inc, _ := c.IncWord(w)
	c.SetNextWord(w, c.MuxWord(en, inc, w))
	c.AddProperty("hit", c.EqConst(w, 2))

	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Delta()
	s := sat.New(cnf.New(0), sat.Options{})
	sawSat := 0
	for k := 0; k <= 4; k++ {
		frame := d.Frame(k)
		s.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			s.AddClause(cl)
		}
		r := s.SolveAssuming([]lits.Lit{d.ActLit(k)})
		if k < 2 {
			if r.Status != sat.Unsat {
				t.Fatalf("depth %d: %v, want Unsat", k, r.Status)
			}
			continue
		}
		if r.Status != sat.Sat {
			t.Fatalf("depth %d: %v, want Sat", k, r.Status)
		}
		sawSat++
		tr := d.ExtractTrace(r.Model, k)
		if len(tr.Inputs) != k+1 {
			t.Fatalf("depth %d: %d input frames, want %d", k, len(tr.Inputs), k+1)
		}
		if !u.Replay(tr) {
			t.Fatalf("depth %d: extracted trace failed replay", k)
		}
	}
	if sawSat != 3 {
		t.Fatalf("saw %d SAT depths, want 3 (depths 2..4)", sawSat)
	}
}

// frameSizesExact fails unless size(k) is the summed variable, clause and
// literal count of frame(0..k) for every k up to 12 — asked ahead of the
// frames, as a pool sizes its solvers — and every frame's literals and
// clause ends are made at exactly their lengths.
func frameSizesExact(t *testing.T, what string, size func(k int) (int, int, int), frame func(k int) *cnf.Formula) {
	t.Helper()
	const maxK = 12
	if v, c, l := size(-1); v != 0 || c != 0 || l != 0 {
		t.Fatalf("%s: Size(-1) is %d, %d, %d, want nothing", what, v, c, l)
	}
	var clauses, literals int
	for k := 0; k <= maxK; k++ {
		wantVars, wantClauses, wantLits := size(k)
		f := frame(k)
		clauses += f.NumClauses()
		literals += f.NumLiterals()
		if wantVars != f.NumVars || wantClauses != clauses || wantLits != literals {
			t.Fatalf("%s depth %d: Size says %d variables, %d clauses, %d literals; frames 0..%d hold %d, %d, %d",
				what, k, wantVars, wantClauses, wantLits, k, f.NumVars, clauses, literals)
		}
		if cap(f.Ends) != len(f.Ends) || cap(f.Lits) != len(f.Lits) {
			t.Fatalf("%s frame %d: %d clauses and %d literals made with room for %d and %d",
				what, k, len(f.Ends), len(f.Lits), cap(f.Ends), cap(f.Lits))
		}
	}
}

// TestDeltaSizeExact: Size(k) is what Frame(0..k) hold together, on the
// suite and on latches with constant next states under a signal property
// and both constant ones, so a pool's hint is exactly what the depth needs.
func TestDeltaSizeExact(t *testing.T) {
	for _, c := range sizeCircuits() {
		u, err := New(c, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		d := u.Delta()
		frameSizesExact(t, c.Name()+" delta", d.Size, d.Frame)
	}
}

// TestFramesAllocatePerFrameNotPerClause: Delta.Frame writes the clauses of
// either query into a formula's two flat arrays, each made at its exact
// size, so a frame costs the same few allocations whatever its clause
// count — the formula and its two arrays. On mix_w8 a frame holds over 3,000 clauses, step frame 15 some
// 1,650 more than step frame 5 (its simple path spans three times the
// pairs); building them one allocation a clause, as appended clause
// slices were, cost 3,369 allocations a frame, and 4,195 against 5,845.
func TestFramesAllocatePerFrameNotPerClause(t *testing.T) {
	const maxAllocs = 4
	m, ok := bench.ByName("mix_w8")
	if !ok {
		t.Fatal("model mix_w8 missing")
	}
	u, err := New(m.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, sd := u.Delta(), u.StepDelta()
	for _, view := range []struct {
		name  string
		frame func(k int) *cnf.Formula
	}{{"Delta", d.Frame}, {"StepDelta", sd.Frame}} {
		allocs := func(k int) float64 {
			return testing.AllocsPerRun(10, func() { view.frame(k) })
		}
		at5, at15 := allocs(5), allocs(15)
		if at5 != at15 || at15 > maxAllocs {
			t.Errorf("%s.Frame allocates %v times at depth 5 (%d clauses), %v at depth 15 (%d clauses): want the same, at most %d",
				view.name, at5, view.frame(5).NumClauses(), at15, view.frame(15).NumClauses(), maxAllocs)
		}
	}
}
