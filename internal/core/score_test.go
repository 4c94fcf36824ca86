package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
	"repro/internal/unroll"
)

func TestWeightedSumIsPaperFormula(t *testing.T) {
	b := NewScoreBoard(WeightedSum)
	// x1 in cores at k=3 and k=4; x2 only at k=3; x3 only at k=4.
	b.Update([]lits.Var{1, 2}, 3)
	b.Update([]lits.Var{1, 3}, 4)
	if got := b.Score(1); got != 7 {
		t.Errorf("score(x1)=%v, want 3+4=7", got)
	}
	if got := b.Score(2); got != 3 {
		t.Errorf("score(x2)=%v, want 3", got)
	}
	if got := b.Score(3); got != 4 {
		t.Errorf("score(x3)=%v, want 4", got)
	}
	if got := b.Score(4); got != 0 {
		t.Errorf("score(x4)=%v, want 0", got)
	}
}

func TestUnweightedSum(t *testing.T) {
	b := NewScoreBoard(UnweightedSum)
	b.Update([]lits.Var{1}, 3)
	b.Update([]lits.Var{1}, 9)
	if got := b.Score(1); got != 2 {
		t.Errorf("score=%v, want 2", got)
	}
}

func TestLastCoreOnly(t *testing.T) {
	b := NewScoreBoard(LastCoreOnly)
	b.Update([]lits.Var{1, 2}, 3)
	b.Update([]lits.Var{2, 3}, 4)
	if b.Score(1) != 0 || b.Score(2) != 1 || b.Score(3) != 1 {
		t.Errorf("last-core-only scores wrong: %v %v %v", b.Score(1), b.Score(2), b.Score(3))
	}
}

func TestExpDecay(t *testing.T) {
	b := NewScoreBoard(ExpDecay)
	b.Update([]lits.Var{1}, 2) // score(1)=2
	b.Update([]lits.Var{2}, 3) // score(1)=1, score(2)=3
	if b.Score(1) != 1 || b.Score(2) != 3 {
		t.Errorf("exp-decay scores wrong: %v %v", b.Score(1), b.Score(2))
	}
}

func TestScoreBoardGrowth(t *testing.T) {
	b := NewScoreBoard(WeightedSum)
	b.Update([]lits.Var{2}, 1)
	b.Update([]lits.Var{100}, 2)
	if b.Score(2) != 1 || b.Score(100) != 2 {
		t.Errorf("growth lost scores")
	}
	if b.Score(1000) != 0 {
		t.Errorf("out-of-range score must be 0")
	}
}

func TestGuidanceIsCopy(t *testing.T) {
	b := NewScoreBoard(WeightedSum)
	b.Update([]lits.Var{1}, 5)
	g := b.Guidance(3)
	if len(g) != 4 {
		t.Fatalf("len(g)=%d", len(g))
	}
	if g[1] != 5 {
		t.Errorf("g[1]=%v", g[1])
	}
	b.Update([]lits.Var{1}, 6)
	if g[1] != 5 {
		t.Errorf("Guidance must be a snapshot; changed to %v", g[1])
	}
}

func TestGuidanceSmallerThanBoard(t *testing.T) {
	b := NewScoreBoard(WeightedSum)
	b.Update([]lits.Var{10}, 1)
	g := b.Guidance(5)
	if len(g) != 6 {
		t.Fatalf("guidance must be sized to the formula, got len %d", len(g))
	}
}

func TestNumScoredAndNumCores(t *testing.T) {
	b := NewScoreBoard(WeightedSum)
	if b.NumScored() != 0 || b.NumCores() != 0 {
		t.Errorf("fresh board not empty")
	}
	b.Update([]lits.Var{1, 2}, 1)
	if b.NumScored() != 2 || b.NumCores() != 1 {
		t.Errorf("NumScored=%d NumCores=%d", b.NumScored(), b.NumCores())
	}
}

func TestWeightedSumMonotoneProperty(t *testing.T) {
	// Property: under WeightedSum, scores never decrease as cores fold in.
	f := func(depths []uint8) bool {
		b := NewScoreBoard(WeightedSum)
		prev := 0.0
		for i, d := range depths {
			b.Update([]lits.Var{1}, int(d%16)+1+i)
			if b.Score(1) < prev {
				return false
			}
			prev = b.Score(1)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreModeStrings(t *testing.T) {
	modes := map[ScoreMode]string{
		WeightedSum:   "weighted-sum",
		UnweightedSum: "unweighted-sum",
		LastCoreOnly:  "last-core-only",
		ExpDecay:      "exp-decay",
		ScoreMode(99): "unknown",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("%d: %s != %s", m, m.String(), want)
		}
	}
}

// TestStrategyConfigure pins the one strategy rule, Strategy.Guidance, on
// a three-variable instance of two frames whose variable 3 is auxiliary.
func TestStrategyConfigure(t *testing.T) {
	in := Layout{NumVars: 3, Frames: 2, VarInfo: func(v lits.Var) (int, bool) {
		return int(v) - 1, v == 3
	}}
	const numLits = 5
	b := NewScoreBoard(WeightedSum)
	b.Update([]lits.Var{2}, 4)

	if g, sw := OrderVSIDS.Guidance(b, in, numLits, SwitchDivisor, nil); g != nil || sw != 0 {
		t.Errorf("vsids must not set guidance: %v, switch %d", g, sw)
	}

	g, sw := OrderStatic.Guidance(b, in, numLits, SwitchDivisor, nil)
	if !slices.Equal(g, []float64{0, 0, 4, 0}) || sw != 0 {
		t.Errorf("static guidance %v, switch %d; want the board's scores, never switched", g, sw)
	}

	g, sw = OrderDynamic.Guidance(b, in, numLits, SwitchDivisor, nil)
	if !slices.Equal(g, []float64{0, 0, 4, 0}) {
		t.Errorf("dynamic guidance %v, want the board's scores", g)
	}
	// 5 literals / 64 < 1 -> clamped to 1.
	if sw != 1 {
		t.Errorf("switch threshold=%d, want clamp to 1", sw)
	}

	// Time axis: frame f of 2 scores 2-f, the auxiliary nothing — written
	// over the caller's array, whatever it held.
	buf := []float64{9, 9, 9, 9, 9}
	g, sw = OrderTimeAxis.Guidance(b, in, numLits, SwitchDivisor, buf)
	if !slices.Equal(g, []float64{0, 2, 1, 0}) || sw != 0 || &g[0] != &buf[0] {
		t.Errorf("time-axis guidance %v, switch %d (over the caller's array: %v)", g, sw, &g[0] == &buf[0])
	}

	// No board: static and dynamic are unguided and never switch, as
	// vsids; time axis reads the layout alone. Guided says which.
	for _, st := range []Strategy{OrderVSIDS, OrderStatic, OrderDynamic, OrderTimeAxis} {
		for _, board := range []*ScoreBoard{b, nil} {
			g, sw := st.Guidance(board, in, numLits, SwitchDivisor, nil)
			if board == nil && st != OrderTimeAxis && (g != nil || sw != 0) {
				t.Errorf("%s without a board: guidance %v, switch %d; want none", st, g, sw)
			}
			if st.Guided(board) != (g != nil) {
				t.Errorf("%s (board %v): Guided %v, but guidance %v", st, board != nil, st.Guided(board), g)
			}
		}
	}
}

func TestStrategyConfigureWithDivisor(t *testing.T) {
	f := cnf.New(2)
	for i := 0; i < 64; i++ {
		f.Add(1, 2) // 128 literals
	}
	b := NewScoreBoard(WeightedSum)
	var opts sat.Options
	OrderDynamic.ConfigureWithDivisor(&opts, b, f, 16)
	if opts.SwitchAfterDecisions != 8 {
		t.Errorf("threshold=%d, want 128/16=8", opts.SwitchAfterDecisions)
	}
	opts = sat.Options{}
	OrderDynamic.ConfigureWithDivisor(&opts, b, f, 0)
	if opts.SwitchAfterDecisions != 0 {
		t.Errorf("divisor 0 must disable the switch")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"vsids": OrderVSIDS, "bmc": OrderVSIDS, "baseline": OrderVSIDS,
		"static": OrderStatic, "dynamic": OrderDynamic,
	}
	for s, want := range cases {
		got, ok := ParseStrategy(s)
		if !ok || got != want {
			t.Errorf("ParseStrategy(%q)=%v,%v", s, got, ok)
		}
	}
	if _, ok := ParseStrategy("bogus"); ok {
		t.Errorf("bogus must not parse")
	}
}

func TestStrategyStrings(t *testing.T) {
	if OrderVSIDS.String() != "vsids" || OrderStatic.String() != "static" ||
		OrderDynamic.String() != "dynamic" || Strategy(9).String() != "unknown" {
		t.Errorf("strategy strings wrong")
	}
}

// TestBoardGrowsLogarithmically: a board fed one core a depth, each naming
// the depth's highest variable, moves its scores at most 7 times over
// gcnt_m10_big's 40 depths, the bound the solver tables are held to
// (engine's TestScratchStorageGrowsLogarithmically).
func TestBoardGrowsLogarithmically(t *testing.T) {
	const depth, maxMoves = 40, 7
	u, err := unroll.New(bench.GatedCounter(4, 10, 6, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := u.Instance()
	b, moves := NewScoreBoard(WeightedSum), 0
	for k := 0; k <= depth; k++ {
		vars, _, _ := in.Size(k)
		before := cap(b.score)
		b.Update([]lits.Var{1, lits.Var(vars)}, k+1)
		if cap(b.score) != before {
			moves++
		}
	}
	t.Logf("scores moved %d times", moves)
	if moves > maxMoves {
		t.Errorf("scores moved %d times over %d depths, want at most %d", moves, depth, maxMoves)
	}
}
