package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples that must lie beyond a reported
// percentile; with fewer, the percentile is one or two outliers.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// the number of samples it was taken from. It refuses, with an error,
// when fewer than minTail samples lie beyond the rank, so p99 needs at
// least 1000 samples and p50 at least 20.
func percentile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, n, fmt.Errorf("percentile: q=%v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minTail {
		return 0, n, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, want >= %d",
			100*q, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n, nil
}

// median is the 0.5 quantile of xs by linear interpolation, for small
// sets (repeated set-ups) where the tail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
