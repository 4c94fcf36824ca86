package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 5}, 0, 3, 6},
		{[]float64{1, 5, 2, 9, 4}, 1.5, 4, 7},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) || !near(median(tc.xs), tc.q2) {
			t.Errorf("%v: quartiles %g %g %g, want %g %g %g", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestIQRShareAndSummary(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(xs); !near(got, 1) {
		t.Errorf("iqrShare = %g, want 1", got)
	}
	if got := iqrShare([]float64{4}); got != 0 {
		t.Errorf("iqrShare of one sample = %g, want 0", got)
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Median != 2 || s.Q1 != 1 || s.Q3 != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}
