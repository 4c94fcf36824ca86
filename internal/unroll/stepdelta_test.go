package unroll

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/lits"
)

// TestStepDeltaNumbering checks the block-wise variable layout: dense,
// frame-stable, and consistent between the forward maps (VarFor, ActLit)
// and the inverse classification (VarInfo).
func TestStepDeltaNumbering(t *testing.T) {
	c := bench.TrafficLight(false, 1, 3)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd := u.StepDelta()
	nl := c.NumLatches()

	prev := 0
	for k := 0; k <= 5; k++ {
		n := sd.NumVars(k)
		// Block sizes: frames 0,1 plus act₀ at depth 0; one frame, one act,
		// and k·nl disequality auxiliaries per later depth.
		want := 2*u.Stride() + 1
		if k > 0 {
			want = prev + u.Stride() + 1 + k*nl
		}
		if n != want {
			t.Fatalf("NumVars(%d) = %d, want %d", k, n, want)
		}
		prev = n

		if got := sd.Frames(k); got != k+2 {
			t.Fatalf("Frames(%d) = %d, want %d", k, got, k+2)
		}

		// Node variables of every frame invert to (frame, aux=false).
		for frame := 0; frame <= k+1; frame++ {
			for _, id := range c.Latches() {
				v := sd.VarFor(id, frame)
				if int(v) > n {
					t.Fatalf("depth %d: VarFor(latch, %d) = %d > NumVars %d", k, frame, v, n)
				}
				gotFrame, aux := sd.VarInfo(v)
				if gotFrame != frame || aux {
					t.Fatalf("depth %d: VarInfo(%d) = (%d, %v), want (%d, false)", k, v, gotFrame, aux, frame)
				}
			}
		}
		// The activation variable inverts to (guarded frame, aux=true).
		av := sd.ActLit(k).Var()
		if int(av) > n {
			t.Fatalf("ActLit(%d) = %d > NumVars %d", k, av, n)
		}
		if frame, aux := sd.VarInfo(av); frame != k+1 || !aux {
			t.Fatalf("VarInfo(act_%d) = (%d, %v), want (%d, true)", k, frame, aux, k+1)
		}
	}

	// Every variable in the dense range classifies without panicking, and
	// the aux population is exactly the act + disequality variables:
	// depth-5 range has 6 activation variables and nl·(1+2+3+4+5) diffs.
	auxCount := 0
	for v := 1; v <= sd.NumVars(5); v++ {
		if _, aux := sd.VarInfo(lits.Var(v)); aux {
			auxCount++
		}
	}
	if want := 6 + nl*15; auxCount != want {
		t.Fatalf("aux variables in depth-5 range: %d, want %d", auxCount, want)
	}
}

// TestStepDeltaFrameShape checks per-depth clause emission: variables stay
// in range and the depth-k frame contains the expected per-depth pieces
// (guard clause, retirement unit, simple-path growth).
func TestStepDeltaFrameShape(t *testing.T) {
	c := bench.Twin(4, 0, 0)
	u, err := New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd := u.StepDelta()
	for k := 0; k <= 4; k++ {
		f := sd.Frame(k)
		if f.NumVars != sd.NumVars(k) {
			t.Fatalf("depth %d: frame NumVars %d, want %d", k, f.NumVars, sd.NumVars(k))
		}
		for i, cl := range f.Clauses {
			if int(cl.MaxVar()) > f.NumVars {
				t.Fatalf("depth %d clause %d: var %d out of range %d", k, i, cl.MaxVar(), f.NumVars)
			}
		}
		// The depth guard must appear: a binary clause with ¬actₖ.
		sawGuard := false
		for _, cl := range f.Clauses {
			if len(cl) == 2 && (cl[0] == sd.ActLit(k).Neg() || cl[1] == sd.ActLit(k).Neg()) {
				sawGuard = true
			}
		}
		if !sawGuard {
			t.Fatalf("depth %d: no guarded bad clause", k)
		}
		if k > 0 {
			// The previous guard is retired by a unit.
			sawRetire := false
			for _, cl := range f.Clauses {
				if len(cl) == 1 && cl[0] == sd.ActLit(k-1).Neg() {
					sawRetire = true
				}
			}
			if !sawRetire {
				t.Fatalf("depth %d: previous guard not retired", k)
			}
		}
	}
}

// TestStepDeltaSizeExact is TestDeltaSizeExact for the step sequence, whose
// simple path makes the size quadratic in the depth.
func TestStepDeltaSizeExact(t *testing.T) {
	for _, c := range sizeCircuits() {
		u, err := New(c, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		sd := u.StepDelta()
		frameSizesExact(t, c.Name()+" step delta", sd.Size, sd.Frame)
	}
}
