package unroll

import (
	"slices"
	"testing"
)

// TestGrowthDepth pins the rule both lifetimes size their storage by. On a
// size linear in the depth and a 40-depth check, a check that re-sizes only
// when a depth outgrows the last answer does so at depths 0, 1, 2, 5, 10
// and 20, for depths 0, 1, 4, 9, 19 and 40 — O(log maxDepth) moves, ending
// exactly at maxDepth. Every answer holds depth k and less than twice its
// size; a depth past maxDepth is its own answer; and a maxDepth too deep to
// load is never sized for, however fast the size grows.
func TestGrowthDepth(t *testing.T) {
	linear := func(t int) int { return t + 1 }
	var at, sizedFor []int
	last := -1
	for k := 0; k <= 40; k++ {
		if k <= last {
			continue
		}
		last = GrowthDepth(k, 40, linear)
		at, sizedFor = append(at, k), append(sizedFor, last)
	}
	if want := []int{0, 1, 2, 5, 10, 20}; !slices.Equal(at, want) {
		t.Errorf("re-sized at depths %v, want %v", at, want)
	}
	if want := []int{0, 1, 4, 9, 19, 40}; !slices.Equal(sizedFor, want) {
		t.Errorf("sized for depths %v, want %v", sizedFor, want)
	}

	quadratic := func(t int) int { return 3*t*t + 5*t + 7 }
	for k := 0; k <= 60; k++ {
		got := GrowthDepth(k, 60, quadratic)
		if got < k || got > 60 || quadratic(got) >= 2*quadratic(k) && got != k {
			t.Errorf("depth %d of 60: sized for %d (size %d against %d)", k, got, quadratic(got), quadratic(k))
		}
	}
	if got := GrowthDepth(70, 60, quadratic); got != 70 {
		t.Errorf("depth 70 past a 60-depth check: sized for %d, want 70", got)
	}
	if got := GrowthDepth(0, 1<<40, quadratic); quadratic(got) > maxSizedInstance {
		t.Errorf("a 2^40-depth check sized depth 0 for depth %d, of size %d", got, quadratic(got))
	}
}
