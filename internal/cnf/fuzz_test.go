package cnf

import (
	"sort"
	"testing"

	"repro/internal/lits"
)

// decodeClause turns fuzz bytes into a clause of DIMACS literals over a
// small variable range, so duplicate and complementary pairs actually
// occur instead of being measure-zero.
func decodeClause(data []byte) Clause {
	const maxLen = 64
	if len(data) > maxLen {
		data = data[:maxLen]
	}
	var ds []int
	for _, b := range data {
		// Map a byte to a literal over vars 1..16, both polarities.
		d := int(b%32) - 16
		if d >= 0 {
			d++ // skip 0, the DIMACS terminator
		}
		ds = append(ds, d)
	}
	return NewClause(ds...)
}

// FuzzClauseCanon checks the clause canonicalization contract:
// Normalize must sort strictly, preserve the literal set, detect
// tautologies exactly, be idempotent, and never change the clause's
// truth function. An already ascending clause takes a one-pass path that
// never sorts; the ascending seeds (bytes 16..31 are x1..x16, 15 down to 0
// are ¬x1..¬x16) pin it against the sorting path, which the descending
// permutation below always takes.
func FuzzClauseCanon(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{3, 200, 7, 3})
	f.Add([]byte{0, 16, 17, 16, 255, 128})
	// Ascending: x1 x2 x3; x1 ¬x2 x3; x1..x16; a tautology x2 ¬x2 inside an
	// ascending run; ascending, then one literal out of order.
	f.Add([]byte{16, 17, 18})
	f.Add([]byte{16, 14, 18})
	f.Add([]byte{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	f.Add([]byte{16, 17, 14, 19})
	f.Add([]byte{16, 18, 20, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := decodeClause(data)
		work := orig.Copy()
		norm, taut := work.Normalize()

		// Tautology ground truth from the original literal set.
		seen := map[lits.Lit]bool{}
		wantTaut := false
		for _, l := range orig {
			if seen[l.Neg()] {
				wantTaut = true
			}
			seen[l] = true
		}
		if taut != wantTaut {
			t.Fatalf("Normalize(%v) tautology = %v, want %v", orig, taut, wantTaut)
		}
		desc := orig.Copy()
		sort.Slice(desc, func(i, j int) bool { return desc[i] > desc[j] })
		if _, sortedTaut := desc.Normalize(); sortedTaut != taut {
			t.Fatalf("Normalize(%v) tautology = %v, but %v through the sort", orig, taut, sortedTaut)
		}
		if taut {
			// A tautological clause is true under every total assignment.
			for pick := 0; pick < 2; pick++ {
				a := lits.NewAssignment(int(orig.MaxVar()))
				for v := lits.Var(1); int(v) <= a.NumVars(); v++ {
					a.Set(v, lits.BoolToTri((int(v)+pick)%2 == 0))
				}
				if orig.Value(a) != lits.True {
					t.Fatalf("tautology %v evaluates %v under total assignment", orig, orig.Value(a))
				}
			}
			return
		}

		// Strictly sorted: sorted order with no duplicates.
		for i := 1; i < len(norm); i++ {
			if norm[i-1] >= norm[i] {
				t.Fatalf("Normalize(%v) = %v is not strictly sorted at %d", orig, norm, i)
			}
		}

		// Same literal set.
		if len(seen) != len(norm) {
			t.Fatalf("Normalize(%v) = %v: %d distinct literals in, %d out", orig, norm, len(seen), len(norm))
		}
		for _, l := range norm {
			if !seen[l] {
				t.Fatalf("Normalize(%v) = %v invented literal %v", orig, norm, l)
			}
		}

		// Idempotent.
		again, taut2 := norm.Copy().Normalize()
		if taut2 || len(again) != len(norm) {
			t.Fatalf("Normalize not idempotent on %v: %v (taut=%v)", norm, again, taut2)
		}
		for i := range norm {
			if again[i] != norm[i] {
				t.Fatalf("Normalize not idempotent on %v: %v", norm, again)
			}
		}

		// Truth-function preservation under assignments derived from the
		// fuzz input: total, empty, and a partial one.
		n := int(orig.MaxVar())
		assignments := []lits.Assignment{lits.NewAssignment(n)}
		total := lits.NewAssignment(n)
		partial := lits.NewAssignment(n)
		for v := 1; v <= n; v++ {
			val := lits.BoolToTri((v+len(data))%3 == 0)
			total.Set(lits.Var(v), val)
			if v%2 == 0 {
				partial.Set(lits.Var(v), val)
			}
		}
		assignments = append(assignments, total, partial)
		for _, a := range assignments {
			if got, want := norm.Value(a), orig.Value(a); got != want {
				t.Fatalf("Normalize changed truth value: %v vs %v under %v (clause %v -> %v)", got, want, a, orig, norm)
			}
		}

		// The canonical form must be insensitive to input order: any
		// permutation of the same multiset normalizes identically.
		perm := orig.Copy()
		sort.Slice(perm, func(i, j int) bool { return perm[i] > perm[j] })
		norm2, taut3 := perm.Normalize()
		if taut3 || len(norm2) != len(norm) {
			t.Fatalf("permutation changed canonical form of %v: %v (taut=%v)", orig, norm2, taut3)
		}
		for i := range norm {
			if norm2[i] != norm[i] {
				t.Fatalf("permutation changed canonical form: %v vs %v", norm, norm2)
			}
		}
	})
}
