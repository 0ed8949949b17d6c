package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, with that percentile (choosing-metrics guide, section 1).
// With twenty samples or fewer there is no such percentile above the
// median, and it reports the median as p50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method) — the statistic the
// driver's steadiness check uses.
func iqrSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
