package sat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lits"
)

// TestHeapBuildMatchesFloyd: over seeded random solvers, the heap Load
// builds pops the same variables in the same order as one built by
// rebuild (Floyd's heapify) over the same keys, through pops, re-inserts
// and keys raised by up, and a sorted build leaves every variable in
// descending order under better. The key forms cover both of build's
// paths: it sorts under no guidance, sparse integer guidance (a
// WeightedSum board) and integer guidance on exactly half the variables,
// and falls back to rebuild under dense integer guidance (time-axis
// frames), fractional guidance (ExpDecay), a negative guidance score and a
// cha key above n. Either way newCount, its counting scratch, is all zero
// afterwards.
func TestHeapBuildMatchesFloyd(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	sparse := func(n int) []float64 {
		g := make([]float64, n+1)
		for v := 1; v <= n; v++ {
			if rng.Intn(8) == 0 {
				g[v] = float64(1 + rng.Intn(min(n, 12)))
			}
		}
		return g
	}
	for _, tc := range []struct {
		name     string
		guidance func(n int) []float64 // nil: none
		hub      bool                  // one literal occurs in more than n clauses
		sorted   bool
	}{
		{"no guidance", nil, false, true},
		{"sparse integer guidance", sparse, false, true},
		{"integer guidance on half the variables", func(n int) []float64 {
			g := make([]float64, n+1)
			for v := 2; v <= n; v += 2 {
				g[v] = float64(1 + rng.Intn(min(n, 12)))
			}
			return g
		}, false, true},
		{"dense integer guidance", func(n int) []float64 {
			const frames = 6
			g := make([]float64, n+1)
			for v := 1; v <= n; v++ {
				if v%7 != 0 { // every seventh variable an auxiliary
					g[v] = float64(frames - (v-1)*frames/n)
				}
			}
			return g
		}, false, false},
		{"fractional guidance", func(n int) []float64 {
			g := sparse(n)
			g[1+rng.Intn(n)] = 1 // one odd score at least, halved to 0.5
			for v := range g {
				g[v] /= 2
			}
			return g
		}, false, false},
		{"negative guidance", func(n int) []float64 {
			g := sparse(n)
			g[1+rng.Intn(n)] = -1
			return g
		}, false, false},
		{"a cha key above n", nil, true, false},
	} {
		for seed := 0; seed < 25; seed++ {
			n := 20 + rng.Intn(60)
			// No more clauses than variables keeps every occurrence count
			// within n, unless the hub raises one past it.
			f := randomCNF(rng, n, n-n/4, 3)
			if tc.hub {
				for i := 0; i <= n; i++ {
					f.Add(1, 2+rng.Intn(n-1))
				}
			}
			var opts Options
			if tc.guidance != nil {
				opts.Guidance = tc.guidance(n)
			}
			s, ref := New(f, opts), New(f, opts)
			s.heap.reset(s, n)
			if sorted := s.heap.build(s.newCount); sorted != tc.sorted {
				t.Fatalf("%s, seed %d: build sorted = %v, want %v", tc.name, seed, sorted, tc.sorted)
			}
			if i := slices.IndexFunc(s.newCount, func(c int32) bool { return c != 0 }); i >= 0 {
				t.Fatalf("%s, seed %d: build left newCount[%d] = %d", tc.name, seed, i, s.newCount[i])
			}
			if tc.sorted {
				for i := 1; i < n; i++ {
					if a, b := s.heap.heap[i-1], s.heap.heap[i]; !s.better(a, b) {
						t.Fatalf("%s, seed %d: %v at %d does not rank above %v", tc.name, seed, a, i-1, b)
					}
				}
			}
			ref.heap.reset(ref, n)
			ref.heap.rebuildAll()
			checkSamePops(t, tc.name, seed, rng, s, ref)
		}
	}
}

// checkSamePops pops both solvers' heaps in step, re-inserting popped
// variables and raising cha_scores by up on the way, then drains them: both
// must give the same variable every time.
func checkSamePops(t *testing.T, name string, seed int, rng *rand.Rand, s, ref *Solver) {
	t.Helper()
	var popped []lits.Var
	pop := func(step int) {
		if s.heap.empty() != ref.heap.empty() {
			t.Fatalf("%s, seed %d, step %d: one heap is empty, the other not", name, seed, step)
		}
		if s.heap.empty() {
			return
		}
		got, want := s.heap.popMax(), ref.heap.popMax()
		if got != want {
			t.Fatalf("%s, seed %d, step %d: built heap pops %v, Floyd's %v", name, seed, step, got, want)
		}
		popped = append(popped, got)
	}
	for step := 0; step < 3*s.nVars; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			pop(step)
		case 2:
			if len(popped) > 0 {
				i := rng.Intn(len(popped))
				v := popped[i]
				popped = slices.Delete(popped, i, i+1)
				s.heap.insert(v)
				ref.heap.insert(v)
			}
		case 3:
			l := lits.MkLit(lits.Var(1+rng.Intn(s.nVars)), rng.Intn(2) == 0)
			for _, x := range []*Solver{s, ref} {
				x.chaScore[l.Index()]++
				if pos := x.heap.pos[l.Var()]; pos >= 0 {
					x.heap.up(int(pos))
				}
			}
		}
	}
	for step := 0; !s.heap.empty() || !ref.heap.empty(); step++ {
		pop(step)
	}
}
