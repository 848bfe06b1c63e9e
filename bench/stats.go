package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail quantile read off fewer samples is noise.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of the samples by the
// nearest-rank method. It refuses a quantile with fewer than minBeyond
// samples beyond it, so a p99 needs at least 1000 samples.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the middle of the samples (the mean of the two middle ones for
// an even count), as Python's statistics.median computes it.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive method of
// Python's statistics.quantiles(samples, n=4), which is how run-to-run
// spreads are judged. It needs at least two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
