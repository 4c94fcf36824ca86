package unroll

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
)

// instanceCircuits is what the growing instance is checked on: one small
// member of every internal/bench family, seeded random circuits (whose
// latches' next states and whose property are sometimes constants), and the
// shapes that leave a part of the formula empty.
func instanceCircuits() []*circuit.Circuit {
	cs := []*circuit.Circuit{
		bench.Counter(4, 9, 1, 3),
		bench.Lock(3, 2, 0, 0),
		bench.Twin(4, 1, 3),
		bench.GatedCounter(3, 5, 1, 4),
		bench.OffsetCounter(3, 4, 5),
		bench.Arbiter(3, true, 0, 0),
		bench.FIFO(2, 3, false, 1, 3),
		bench.Pipeline(2, 3, true),
		bench.TrafficLight(false, 1, 3),
		bench.ProducerConsumer(3, 5, false),
		bench.ParityMixer(4, 1, 3),
		bench.ShiftWindow(4, true, 0, 0),
		bench.PhaseSwitch(3, 2, 4, 0, 0),
		bench.AdderTwin(3, 0, 0),
	}
	for seed := uint64(1); seed <= 12; seed++ {
		cs = append(cs, randomCircuit(seed*0x9E3779B97F4A7C15, 2, 1+int(seed%4), int(seed%7)))
	}

	// Latches with constant next states, under a property that is a signal,
	// constantly violated, and never violated.
	for _, bad := range []string{"signal", "true", "false"} {
		c := circuit.New("const-" + bad)
		l, m := c.Latch("l", false), c.Latch("m", true)
		c.SetNext(l, circuit.True)
		c.SetNext(m, circuit.False)
		n := c.Latch("n", false)
		c.SetNext(n, c.And(l, m.Not()))
		switch bad {
		case "signal":
			c.AddProperty("p", c.And(l, n))
		case "true":
			c.AddProperty("p", circuit.True)
		case "false":
			c.AddProperty("p", circuit.False)
		}
		cs = append(cs, c)
	}

	// No AND gate at all: a latch fed by an input.
	wire := circuit.New("wire")
	l := wire.Latch("l", false)
	wire.SetNext(l, wire.Input("in"))
	wire.AddProperty("p", l)
	return append(cs, wire)
}

// sameFormula fails unless got is want, clause by clause in order.
func sameFormula(t *testing.T, what string, got, want *cnf.Formula) {
	t.Helper()
	if got.NumVars != want.NumVars || len(got.Clauses) != len(want.Clauses) {
		t.Fatalf("%s: %d variables and %d clauses, want %d and %d",
			what, got.NumVars, len(got.Clauses), want.NumVars, len(want.Clauses))
	}
	for i, c := range got.Clauses {
		if !slices.Equal(c, want.Clauses[i]) {
			t.Fatalf("%s: clause %d is %v, want %v", what, i, c, want.Clauses[i])
		}
	}
}

// TestPropertyGrownInstanceIsOneShot: an instance grown a depth at a time is
// at every depth the instance built in one go — the same variables and the
// same clauses in the same order, so the same clause IDs — it knows its
// literal count, and growing it never writes into a literal array an
// earlier depth handed out.
func TestPropertyGrownInstanceIsOneShot(t *testing.T) {
	const maxK = 12
	for _, c := range instanceCircuits() {
		u, err := New(c, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, q := range []struct {
			name    string
			grown   *Instance
			oneShot func(k int) *cnf.Formula
		}{
			{"bmc", u.Instance(), u.Formula},
			{"step", u.StepInstance(), func(k int) *cnf.Formula { return StepFormula(u, k) }},
		} {
			var handedOut []cnf.Clause // the last depth's clauses as it returned them
			var asTheyWere *cnf.Formula
			for k := 0; k <= maxK; k++ {
				what := c.Name() + "/" + q.name
				f := q.grown.Extend(k)
				sameFormula(t, what, f, q.oneShot(k))
				if got, want := q.grown.NumLiterals(), f.NumLiterals(); got != want {
					t.Fatalf("%s depth %d: NumLiterals %d, the formula has %d", what, k, got, want)
				}
				for i, cl := range handedOut {
					if !slices.Equal(cl, asTheyWere.Clauses[i]) {
						t.Fatalf("%s: growing to depth %d rewrote depth %d's clause %d: %v, was %v",
							what, k, k-1, i, cl, asTheyWere.Clauses[i])
					}
				}
				handedOut, asTheyWere = slices.Clone(f.Clauses), f.Copy()
			}
		}

		// Several frames in one extension, and an extension that adds none.
		jumps := u.Instance()
		for _, k := range []int{2, 3, 3, 7, maxK} {
			sameFormula(t, c.Name()+"/bmc by jumps", jumps.Extend(k), u.Formula(k))
		}
	}
}

// TestInstanceClauseListGrowsGeometrically: an instance grown a frame at a
// time replaces its clause list with head-room, so that it does so a number
// of times logarithmic in the depth, and never holds more than the
// head-room past what the depth needs.
func TestInstanceClauseListGrowsGeometrically(t *testing.T) {
	u, err := New(bench.GatedCounter(3, 5, 1, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	const depth = 200
	in := u.Instance()
	moves, lastCap := 0, 0
	for k := 0; k <= depth; k++ {
		f := in.Extend(k)
		if c := cap(f.Clauses); c != lastCap {
			moves, lastCap = moves+1, c
		}
		if n := len(f.Clauses); cap(f.Clauses) > n+n/growSlackDen {
			t.Fatalf("depth %d: capacity %d for %d clauses, more than 1/%d to spare", k, cap(f.Clauses), n, growSlackDen)
		}
	}
	// Every depth below growSlackDen frames outgrows its head-room; from
	// there on the list is replaced once per factor of 1+1/growSlackDen,
	// some thirty times on the way to 200 frames.
	if moves > depth/4 {
		t.Errorf("clause list replaced %d times on the way to depth %d: not geometric", moves, depth)
	}
}
