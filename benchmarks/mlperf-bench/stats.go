package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of the values (mean of the two middle ones for an
// even count); 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance check computes spreads with. Fewer than two values have no
// spread: both quartiles are the value itself.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Rank i*(n+1)/4, clamped to the data, then linear interpolation
		// (extrapolation past the clamp, as Python does).
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted values,
// the estimator the LoadGen's validity verdict uses.
func percentile[T time.Duration | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
