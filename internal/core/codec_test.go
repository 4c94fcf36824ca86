package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lits"
	"repro/internal/sat"
)

// codedLen is the number of bytes appendRun codes a delta in.
func codedLen(d int64) int {
	n := 1
	for u := zigzag(d); u >= 0x80; u >>= 7 {
		n++
	}
	return n
}

// TestRunCodecRoundTrip codes random runs one after another into one store
// and decodes each where it lies, with decodeRun and with the sweep's
// markRun. The values include 0 and 2^31-1, the deltas every length from
// one byte to five, some runs are longer than a chunk, and many straddle a
// chunk boundary, some inside a value. Every run takes exactly the bytes
// its deltas code in. markRun is checked on a second store whose values lie
// below 2^20, so that a bitset over them stays small.
func TestRunCodecRoundTrip(t *testing.T) {
	long := codeRandomRuns(t, 1<<31-1)
	if long.lengths[maxVarint] == 0 || !long.extremes[0] || !long.extremes[1] {
		t.Errorf("no five-byte delta (%v), or 0 (%v) or 2^31-1 (%v) never coded", long.lengths, long.extremes[0], long.extremes[1])
	}
	for i, r := range long.runs {
		if got := decodeRun(&long.c, nil, r.lo, r.hi, r.prev); !slices.Equal(got, r.xs) {
			t.Fatalf("run %d (bytes %d-%d) decodes to %d values, %d coded; first difference at %d",
				i, r.lo, r.hi, len(got), len(r.xs), firstDiff(got, r.xs))
		}
	}

	const top = 1<<20 - 1
	short := codeRandomRuns(t, top)
	seen := make([]uint64, (top+1)/64)
	for i, r := range short.runs {
		markRun(&short.c, seen, r.lo, r.hi, int64(r.prev))
		for _, x := range r.xs {
			if seen[x>>6]&(1<<(x&63)) == 0 {
				t.Fatalf("run %d (bytes %d-%d): markRun left %d unmarked", i, r.lo, r.hi, x)
			}
		}
		for _, x := range r.xs {
			seen[x>>6] &^= 1 << (x & 63)
		}
		if j := slices.IndexFunc(seen, func(w uint64) bool { return w != 0 }); j >= 0 {
			t.Fatalf("run %d (bytes %d-%d): markRun marked %#x in word %d, which no value of the run is in", i, r.lo, r.hi, seen[j], j)
		}
	}

	// Literals are coded from 0, and extremes of the literal range
	// round-trip the same way.
	ls := []lits.Lit{lits.PosLit(1), lits.NegLit(1<<30 - 1), lits.PosLit(2), lits.NegLit(1)}
	lo := long.c.n
	appendRun(&long.c, ls, 0)
	if got := decodeRun(&long.c, nil, lo, long.c.n, lits.Lit(0)); !slices.Equal(got, ls) {
		t.Fatalf("literals %v decode to %v", ls, got)
	}
}

// codedRun is one run of a test store: where it lies, what its first value
// was coded against, and its values.
type codedRun struct {
	lo, hi int
	prev   sat.ClauseID
	xs     []sat.ClauseID
}

// codedRuns is a store of random runs and what they cover.
type codedRuns struct {
	c        chunked[byte]
	runs     []codedRun
	lengths  [maxVarint + 1]int // deltas by coded length
	extremes [2]bool            // 0 and top coded
}

// codeRandomRuns codes random runs of values in [0, top] until the store
// spans twelve chunks, checking that each takes the bytes its deltas code
// in, and that some are longer than a chunk, some straddle a boundary, and
// some value lies in two chunks.
func codeRandomRuns(t *testing.T, top int64) *codedRuns {
	t.Helper()
	rng := rand.New(rand.NewSource(top))
	// next draws the value after prev: 0, top or one near it, or a delta of
	// a given size, clamped to [0, top].
	next := func(prev sat.ClauseID) sat.ClauseID {
		var x int64
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			x = top - int64(rng.Intn(3))
		case 2:
			x = int64(prev) + int64(rng.Intn(127)) - 63 // one byte
		case 3:
			x = int64(prev) + int64(rng.Intn(1<<14)) - 1<<13 // up to two
		case 4:
			x = int64(prev) + int64(rng.Intn(1<<21)) - 1<<20 // up to three
		case 5:
			x = int64(prev) + int64(rng.Intn(1<<28)) - 1<<27 // up to four
		default:
			x = rng.Int63n(top + 1) // mostly five, below 2^31
		}
		return sat.ClauseID(min(max(x, 0), top))
	}
	out := &codedRuns{}
	c := &out.c
	long, straddle, split := 0, 0, 0
	for c.n < 12*chunkLen {
		n := 1 + rng.Intn(60)
		if rng.Intn(400) == 0 {
			n = chunkLen + rng.Intn(chunkLen) // past a chunk at any coding
		}
		prev := sat.ClauseID(rng.Int63n(top + 1))
		xs := make([]sat.ClauseID, n)
		want, last := 0, prev
		for i := range xs {
			xs[i] = next(last)
			d := codedLen(int64(xs[i]) - int64(last))
			out.lengths[d]++
			// A value whose first and last byte lie in different chunks.
			if at := c.n + want; at>>chunkShift != (at+d-1)>>chunkShift {
				split++
			}
			want += d
			out.extremes[0] = out.extremes[0] || xs[i] == 0
			out.extremes[1] = out.extremes[1] || int64(xs[i]) == top
			last = xs[i]
		}
		lo := c.n
		appendRun(c, xs, prev)
		if c.n-lo != want {
			t.Fatalf("a run of %d values took %d bytes, its deltas code in %d", n, c.n-lo, want)
		}
		if c.n-lo > chunkLen {
			long++
		}
		if lo>>chunkShift != (c.n-1)>>chunkShift {
			straddle++
		}
		out.runs = append(out.runs, codedRun{lo, c.n, prev, xs})
	}
	if long == 0 || straddle < 3 || split == 0 {
		t.Fatalf("values below %d: %d runs longer than a chunk, %d straddling a boundary, %d values split by one",
			top+1, long, straddle, split)
	}
	for d := 1; d <= codedLen(-top); d++ {
		if out.lengths[d] == 0 {
			t.Errorf("values below %d: no delta coded in %d bytes: %v", top+1, d, out.lengths)
		}
	}
	t.Logf("values below %d: %d runs, %d bytes, deltas by coded length %v", top+1, len(out.runs), c.n, out.lengths[1:])
	return out
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []sat.ClauseID) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestCodedRunsThroughForgetAndReload: a graph whose learned clauses reach
// back past 2^27 IDs to the originals (five-byte deltas), with runs longer
// than a chunk, survives collections — its runs slide across chunk
// boundaries to new offsets — and a Reload into the same storage, with the
// reference traversal's core every time.
func TestCodedRunsThroughForgetAndReload(t *testing.T) {
	const base = 1<<27 + 1<<20
	rng := rand.New(rand.NewSource(5))
	build := func(r *Recorder, ref *refGraph) (live []sat.ClauseID) {
		for i := 0; i < 3000; i++ {
			id := sat.ClauseID(base + i)
			n := 1 + rng.Intn(40)
			if i%700 == 350 {
				n = chunkLen / 2 // a run longer than a chunk
			}
			ants := make([]sat.ClauseID, n)
			for j := range ants {
				switch {
				case len(live) > 0 && rng.Intn(2) == 0:
					ants[j] = live[rng.Intn(len(live))]
				case rng.Intn(4) == 0:
					ants[j] = sat.ClauseID(rng.Intn(2)) * (base - 1) // 0 or the last original
				default:
					ants[j] = sat.ClauseID(rng.Intn(base))
				}
			}
			r.RecordLearned(id, nil, ants)
			ref.deps[id] = ants
			live = append(live, id)
			if i%500 == 499 {
				live = slices.DeleteFunc(live, func(sat.ClauseID) bool { return rng.Intn(2) == 0 })
				r.Forget(live)
			}
		}
		return live
	}
	check := func(what string, r *Recorder, ref *refGraph, live []sat.ClauseID) {
		t.Helper()
		final := []sat.ClauseID{live[len(live)-1], live[0], 7}
		r.RecordFinal(final)
		if got, want := r.Core(), ref.core(final); !slices.Equal(got, want) {
			t.Fatalf("%s: core of %d clauses, reference %d", what, len(got), len(want))
		}
		r.ResetFinal()
	}

	r := NewRecorder(base)
	ref := &refGraph{deps: map[sat.ClauseID][]sat.ClauseID{}}
	live := build(r, ref)
	if len(r.ants.spare) == 0 {
		t.Errorf("six collections over %d chunks freed none", len(r.ants.chunks))
	}
	check("after six collections", r, ref, live)

	r.Reload(base)
	if r.ants.n != 0 || len(r.ants.chunks) != 0 || len(r.ants.spare) == 0 {
		t.Fatalf("Reload left %d bytes in %d chunks, %d spares", r.ants.n, len(r.ants.chunks), len(r.ants.spare))
	}
	ref = &refGraph{deps: map[sat.ClauseID][]sat.ClauseID{}}
	live = build(r, ref)
	check("after Reload", r, ref, live)
}
