package sat_test

import (
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/proofcheck"
	"repro/internal/sat"
)

// fuzzVars bounds the variables an op sequence names, so brute force over
// every clause so far stays cheap.
const fuzzVars = 12

// opReader decodes a fuzz input a byte at a time; past its end every byte
// reads zero.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *opReader) intn(n int) int { return int(r.byte()) % n }

// lit is a literal over variables 1..nVars.
func (r *opReader) lit(nVars int) lits.Lit {
	b := r.byte()
	return lits.MkLit(lits.Var(1+int(b>>1)%nVars), b&1 == 1)
}

// clause is a clause over variables 1..nVars, duplicates and complementary
// pairs included: mostly of three literals, one in 32 of two and one in 32
// a unit.
func (r *opReader) clause(nVars int) cnf.Clause {
	c := make(cnf.Clause, min(3, 1+r.intn(32)))
	for i := range c {
		c[i] = r.lit(nVars)
	}
	return c
}

// formula is a formula of 2.5n to 4.5n clauses over n variables, n from 6 to
// fuzzVars: around 4.3n clauses are the hardest, and a literal in more than
// n of them is a cha key the load-time heap build does not sort. One in 256
// also holds the empty clause. Only a formula does: a recorder cannot tell
// an empty leaf added later from an ID nobody registered, and its proof
// takes both for no record.
func (r *opReader) formula() *cnf.Formula {
	n := 6 + r.intn(fuzzVars-5)
	f := cnf.New(n)
	if r.byte() == 255 {
		f.AddClause(cnf.Clause{})
	}
	for m := 5*n/2 + r.intn(2*n+1); m > 0; m-- {
		f.AddClause(r.clause(n))
	}
	return f
}

// guidance is one of the guidance forms the solver meets, over variables
// 1..nVars: none, sparse integer scores (a WeightedSum board), dense
// integer ones (time-axis frames), halved ones (ExpDecay), one negative
// score, one above nVars. Load's heap build counting-sorts under the
// first two, integers from 0 to nVars on at most half the variables; it
// falls back to rebuild for the rest.
func (r *opReader) guidance(nVars int) []float64 {
	form := r.intn(6)
	if form == 0 {
		return nil
	}
	g := make([]float64, nVars+1)
	if form == 2 {
		frames := 1 + r.intn(nVars)
		for v := 1; v <= nVars; v++ {
			g[v] = float64(frames - (v-1)*frames/nVars)
		}
		return g
	}
	for v := 1; v <= nVars; v++ {
		if r.intn(4) == 0 {
			g[v] = float64(1 + r.intn(nVars))
		}
	}
	switch v := 1 + r.intn(nVars); form {
	case 3:
		for v := range g {
			g[v] /= 2
		}
	case 4:
		g[v] = -1
	case 5:
		g[v] = float64(nVars + 1)
	}
	return g
}

// opsRun is one op sequence's solver, its Complete proof recorder, and
// what the brute-force oracle needs: every clause the solver was given and
// the formula last loaded, whose clauses the recorder looks up by ID.
type opsRun struct {
	t         *testing.T
	s         *sat.Solver
	rec       *core.Recorder
	originals *cnf.Formula
	clauses   []cnf.Clause

	// What the run reached, for the seed corpus's own test.
	solves, refuted, compactions, watchCompactions int
}

// load makes the run's solver f's: sat.New's when into is nil, into's
// Load otherwise.
func (o *opsRun) load(f *cnf.Formula, into *sat.Solver, r *opReader) {
	opts := sat.Options{Guidance: r.guidance(f.NumVars), SwitchAfterDecisions: int64(r.intn(4))}
	if o.s != nil {
		o.compactions += o.s.Compactions()
		o.watchCompactions += o.s.WatchCompactions()
	}
	if o.rec == nil {
		o.rec = core.NewRecorderWith(f.NumClauses(), core.Complete)
	} else {
		o.rec.Reload(f.NumClauses())
	}
	opts.Recorder = o.rec
	opts = sat.Churning(opts)
	if into == nil {
		o.s = sat.New(f, opts)
	} else {
		into.Load(f, opts)
		o.s = into
	}
	o.originals, o.clauses = f, nil
	for _, c := range f.Clauses {
		o.clauses = append(o.clauses, c)
	}
}

// runOps decodes data into a sequence of solver calls, starting from sat.New
// over a decoded formula, and checks every answer against brute force over
// the clauses so far, every refutation by proofcheck, and the decision
// heap and the watch store after every call.
func runOps(t *testing.T, data []byte) *opsRun {
	r := &opReader{data: data}
	o := &opsRun{t: t}
	o.load(r.formula(), nil, r)
	for step := 0; step < 48 && len(r.data) > 0; step++ {
		switch r.intn(8) {
		case 0:
			o.load(r.formula(), nil, r)
		case 1:
			// Into used storage or an empty solver, hinted larger or not.
			into := o.s
			if r.intn(2) == 0 {
				into = new(sat.Solver)
			}
			f := r.formula()
			if r.intn(2) == 0 {
				into.Grow(f.NumVars + r.intn(fuzzVars))
			}
			o.load(f, into, r)
		case 2:
			o.s.AddVars(min(fuzzVars, o.s.NumVars()+1+r.intn(3)))
		case 3:
			c := r.clause(fuzzVars)
			o.rec.AddLeaf(o.s.AddClause(c), c)
			o.clauses = append(o.clauses, c)
		case 4:
			o.s.SetGuidance(r.guidance(o.s.NumVars()), int64(r.intn(4)))
		default:
			var assumps []lits.Lit
			if n := o.s.NumVars(); n > 0 {
				for k := r.intn(4); k > 0; k-- {
					assumps = append(assumps, r.lit(n))
				}
			}
			o.solve(step, assumps)
		}
		if err := o.s.CheckHeap(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := o.s.CheckWatches(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	o.compactions += o.s.Compactions()
	o.watchCompactions += o.s.WatchCompactions()
	return o
}

// solve checks one SolveAssuming call: its status is brute force's; a model
// satisfies every clause and assumption; the failed assumptions are
// assumptions that the clauses refute, and the recorded proof certifies
// the refutation and its core.
func (o *opsRun) solve(step int, assumps []lits.Lit) {
	t := o.t
	res := o.s.SolveAssuming(assumps)
	o.solves++
	want := satisfiable(o.clauses, assumps)
	switch {
	case res.Status == sat.Sat && want:
		for _, c := range append(slices.Clone(o.clauses), assumptionUnits(assumps)...) {
			if !slices.ContainsFunc(c, func(l lits.Lit) bool { return res.Model.LitValue(l) == lits.True }) {
				t.Fatalf("step %d: the model falsifies %v", step, c)
			}
		}
	case res.Status == sat.Unsat && !want:
		o.refuted++
		for _, l := range res.FailedAssumptions {
			if !slices.Contains(assumps, l) {
				t.Fatalf("step %d: failed assumption %v is not among %v", step, l, assumps)
			}
		}
		if satisfiable(o.clauses, res.FailedAssumptions) {
			t.Fatalf("step %d: the clauses do not refute the failed assumptions %v", step, res.FailedAssumptions)
		}
		if err := proofcheck.Check(o.rec.Proof(o.originals, res.FailedAssumptions), o.rec.Core()); err != nil {
			t.Fatalf("step %d, assuming %v: %v", step, assumps, err)
		}
		o.rec.ResetFinal()
	default:
		t.Fatalf("step %d, assuming %v: %v, brute force says satisfiable %v", step, assumps, res.Status, want)
	}
}

func assumptionUnits(assumps []lits.Lit) []cnf.Clause {
	units := make([]cnf.Clause, len(assumps))
	for i, l := range assumps {
		units[i] = cnf.Clause{l}
	}
	return units
}

// satisfiable reports whether some assignment of variables 1..fuzzVars
// satisfies every clause and every unit, trying all of them.
func satisfiable(clauses []cnf.Clause, units []lits.Lit) bool {
	type masks struct{ pos, neg uint32 } // the variables a clause has positive, negative
	all := make([]masks, 0, len(clauses)+len(units))
	add := func(c []lits.Lit) {
		var m masks
		for _, l := range c {
			if bit := uint32(1) << (l.Var() - 1); l.Sign() {
				m.neg |= bit
			} else {
				m.pos |= bit
			}
		}
		all = append(all, m)
	}
	for _, c := range clauses {
		add(c)
	}
	for _, l := range units {
		add([]lits.Lit{l})
	}
	for a := uint32(0); a < 1<<fuzzVars; a++ {
		if !slices.ContainsFunc(all, func(m masks) bool { return a&m.pos == 0 && ^a&m.neg == 0 }) {
			return true
		}
	}
	return false
}

// opSeeds are FuzzSolverOps's seed inputs: byte strings from a fixed
// generator, long enough to load, grow and solve many times over.
func opSeeds() [][]byte {
	x := uint64(0x9e3779b97f4a7c15)
	seeds := make([][]byte, 24)
	for i := range seeds {
		seeds[i] = make([]byte, 512+64*i)
		for j := range seeds[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			seeds[i][j] = byte(x)
		}
	}
	return seeds
}

// FuzzSolverOps decodes its input into a sequence of solver calls over at
// most fuzzVars variables — New, Load into used or empty storage with and
// without Grow, AddVars, AddClause, SetGuidance and
// SolveAssuming under random assumptions — under every guidance form and a
// tuning that reduces the learnt clauses and compacts the arena every few
// conflicts (sat.Churning), with watch pages so short that lists move and
// the watch store compacts all the time. Every answer must agree with
// brute force, every refutation's recorded proof must certify it and its
// core, the decision heap must be the heap of the unassigned variables
// and the watch store must hold every attached clause twice, in lists
// that do not overlap, after every call.
func FuzzSolverOps(f *testing.F) {
	for _, seed := range opSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

// TestSolverOpSeedsReach: the seed corpus alone reaches what FuzzSolverOps
// is for — refutations certified under assumptions, compactions of the
// arena with their collections of the proof, and compactions of the watch
// store.
func TestSolverOpSeedsReach(t *testing.T) {
	var solves, refuted, compactions, watchCompactions int
	for _, seed := range opSeeds() {
		o := runOps(t, seed)
		solves, refuted, compactions = solves+o.solves, refuted+o.refuted, compactions+o.compactions
		watchCompactions += o.watchCompactions
	}
	t.Logf("%d solves, %d refuted and certified, %d compactions, %d of the watch store", solves, refuted, compactions, watchCompactions)
	if refuted == 0 || refuted == solves || compactions == 0 || watchCompactions == 0 {
		t.Errorf("%d solves, %d refuted, %d compactions, %d of the watch store: the seeds no longer reach every outcome",
			solves, refuted, compactions, watchCompactions)
	}
}
