package main

import (
	"math"
	"slices"
	"sort"
)

// summary is the five-number description every timing is printed with.
// There is no percentile: a run has fewer than ten passes, so no sample
// lies beyond any.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// median returns the middle value (mean of the middle two for even n),
// NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the rule Python's
// statistics.quantiles(xs, n=4) uses (exclusive method: position
// i·(n+1)/4 with the index clamped to the sample, linear interpolation
// that extrapolates for n < 3), because that is the rule the accepting
// pipeline computes spreads with. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the interquartile distance as a share of the median — the
// spread the benchmark's bounds are judged against.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(xs)
	return summary{N: len(xs), Min: slices.Min(xs), Q1: q1, Median: median(xs), Q3: q3}
}
