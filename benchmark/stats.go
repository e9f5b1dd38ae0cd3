package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the figure is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile of sorted (ascending) by nearest rank.
// It refuses when fewer than minBeyond samples lie beyond the rank it
// picks, on the side away from the median.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.3g of %d samples is undefined", q, n)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	beyond := n - 1 - idx
	if q < 0.5 {
		beyond = idx
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// median returns the middle value (mean of the middle two for even n);
// it does not modify xs. The median of nothing is 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
