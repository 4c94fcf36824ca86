package unroll

import (
	"fmt"
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
	if got.NumVars != want.NumVars || got.NumClauses() != want.NumClauses() {
		t.Fatalf("%s: %d variables and %d clauses, want %d and %d",
			what, got.NumVars, got.NumClauses(), want.NumVars, want.NumClauses())
	}
	for i, c := range got.Clauses {
		if !slices.Equal(c, want.Clause(i)) {
			t.Fatalf("%s: clause %d is %v, want %v", what, i, c, want.Clause(i))
		}
	}
	if !slices.Equal(got.Lits, want.Lits) || !slices.Equal(got.Ends, want.Ends) {
		t.Fatalf("%s: the clauses agree but the flat arrays do not", what)
	}
}

// TestPropertyGrownInstanceIsOneShot: an instance grown a depth at a time is
// at every depth the instance built in one go — the same variables and the
// same clauses in the same order, so the same clause IDs — and it is one
// formula, rewritten in place: every Extend returns the formula the last
// one did, so whoever still holds it after the next Extend holds the next
// depth, never a mix of two.
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
			{"step", u.StepInstance(), func(k int) *cnf.Formula { return u.StepInstance().Extend(k) }},
		} {
			var handedOut *cnf.Formula // what the last depth returned
			for k := 0; k <= maxK; k++ {
				what := c.Name() + "/" + q.name
				f := q.grown.Extend(k)
				sameFormula(t, what, f, q.oneShot(k))
				if handedOut != nil && f != handedOut {
					t.Fatalf("%s: depth %d returned a formula other than depth %d's", what, k, k-1)
				}
				handedOut = f
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
// time and hinted (Grow) for about twice the depth whenever a depth
// outgrows the last hint replaces its literals and its clause ends each a
// number of times logarithmic in the depth and ends at exactly the last
// depth's size; without hints every replacement is exactly as long as the
// depth needs.
func TestInstanceClauseListGrowsGeometrically(t *testing.T) {
	u, err := New(bench.GatedCounter(3, 5, 1, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	const depth = 200
	const maxMoves = 9 // ⌈log₂ 200⌉ + 1
	hinted, unhinted := u.Instance(), u.Instance()
	endMoves, litMoves, endCap, litCap, sizedFor := 0, 0, 0, 0, -1
	var f *cnf.Formula
	for k := 0; k <= depth; k++ {
		if k > sizedFor {
			sizedFor = min(2*k+1, depth)
			hinted.Grow(sizedFor)
		}
		f = hinted.Extend(k)
		if c := cap(f.Ends); c != endCap {
			endMoves, endCap = endMoves+1, c
		}
		if c := cap(f.Lits); c != litCap {
			litMoves, litCap = litMoves+1, c
		}
		endsBefore, litsBefore := cap(unhinted.f.Ends), cap(unhinted.f.Lits)
		g := unhinted.Extend(k)
		if cap(g.Ends) != endsBefore && cap(g.Ends) != len(g.Ends) {
			t.Fatalf("depth %d: unhinted clause ends replaced by %d places for %d clauses", k, cap(g.Ends), len(g.Ends))
		}
		if cap(g.Lits) != litsBefore && cap(g.Lits) != len(g.Lits) {
			t.Fatalf("depth %d: unhinted literals replaced by %d places for %d literals", k, cap(g.Lits), len(g.Lits))
		}
	}
	if endMoves > maxMoves || litMoves > maxMoves {
		t.Errorf("hinted clause ends and literals replaced %d and %d times on the way to depth %d, want at most %d",
			endMoves, litMoves, depth, maxMoves)
	}
	_, clauses, literals := hinted.Size(depth)
	if cap(f.Ends) != clauses || len(f.Ends) != clauses {
		t.Errorf("depth %d: %d clauses in %d places, want Size's %d in exactly that many", depth, len(f.Ends), cap(f.Ends), clauses)
	}
	if cap(f.Lits) != literals || len(f.Lits) != literals {
		t.Errorf("depth %d: %d literals in %d places, want Size's %d in exactly that many", depth, len(f.Lits), cap(f.Lits), literals)
	}
}

// sizeCircuits is what Size is checked on: every model of the suite and
// the instance circuits (constant next states, constant properties, no AND
// gate).
func sizeCircuits() []*circuit.Circuit {
	cs := instanceCircuits()
	for _, m := range bench.Suite() {
		cs = append(cs, m.Build())
	}
	return cs
}

// TestInstanceSizeExact: Size(k) is Extend(k)'s variable, clause and
// literal count on both queries, so a hint sized from it is exactly what
// the depth needs.
func TestInstanceSizeExact(t *testing.T) {
	const maxK = 12
	for _, c := range sizeCircuits() {
		u, err := New(c, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, q := range []struct {
			name string
			in   *Instance
		}{{"bmc", u.Instance()}, {"step", u.StepInstance()}} {
			for k := 0; k <= maxK; k++ {
				vars, clauses, literals := q.in.Size(k) // asked ahead of the extension
				f := q.in.Extend(k)
				if vars != f.NumVars || clauses != f.NumClauses() || literals != f.NumLiterals() {
					t.Fatalf("%s/%s depth %d: Size says %d variables, %d clauses, %d literals; Extend built %d, %d, %d",
						c.Name(), q.name, k, vars, clauses, literals, f.NumVars, f.NumClauses(), f.NumLiterals())
				}
			}
		}
	}
}

// normalised fails unless every clause of f is strictly ascending with no
// complementary pair — which, ascending, would be neighbours.
func normalised(t *testing.T, what string, f *cnf.Formula) {
	t.Helper()
	for i, cl := range f.Clauses {
		for j := 1; j < len(cl); j++ {
			if cl[j] <= cl[j-1] || cl[j] == cl[j-1].Neg() {
				t.Fatalf("%s: clause %d %v is not normalised", what, i, cl)
			}
		}
	}
}

// TestClausesEmittedNormalised: the four encodings — both queries' growing
// instance and Delta — emit every clause in the form the solver stores,
// so that loading them sorts nothing.
func TestClausesEmittedNormalised(t *testing.T) {
	const maxK = 12
	for _, c := range sizeCircuits() {
		u, err := New(c, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		bmc, step, d, sd := u.Instance(), u.StepInstance(), u.Delta(), u.StepDelta()
		for k := 0; k <= maxK; k++ {
			normalised(t, fmt.Sprintf("%s bmc instance depth %d", c.Name(), k), bmc.Extend(k))
			normalised(t, fmt.Sprintf("%s step instance depth %d", c.Name(), k), step.Extend(k))
			normalised(t, fmt.Sprintf("%s delta frame %d", c.Name(), k), d.Frame(k))
			normalised(t, fmt.Sprintf("%s step delta frame %d", c.Name(), k), sd.Frame(k))
		}
	}
}
