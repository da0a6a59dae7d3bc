package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// NearestRank returns the p-quantile of an ascending-sorted sample set by the
// nearest-rank method, which is what the MLPerf LoadGen reports: the k-th
// smallest sample with k = ceil(p * n), clamped to [1, n]. An empty set
// yields 0.
func NearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * p))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Percentile returns the nearest-rank p-quantile (0 < p <= 1) of the given
// latency samples. The input slice is not modified.
func Percentile(samples []time.Duration, p float64) (time.Duration, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty sample set")
	}
	if !(p > 0 && p <= 1) {
		return 0, fmt.Errorf("stats: percentile %v outside (0,1]: %w", p, ErrInvalidProbability)
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return NearestRank(sorted, p), nil
}

// LatencySummary aggregates a latency distribution into the statistics the
// LoadGen reports at the end of a run.
type LatencySummary struct {
	Count  int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	P50    time.Duration
	P90    time.Duration
	P95    time.Duration
	P97    time.Duration
	P99    time.Duration
	P999   time.Duration
	Sorted []time.Duration // ascending copy of the samples
}

// Summarize computes a LatencySummary over the samples. It returns an error
// for an empty sample set.
func Summarize(samples []time.Duration) (LatencySummary, error) {
	if len(samples) == 0 {
		return LatencySummary{}, fmt.Errorf("stats: cannot summarize empty sample set")
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	return LatencySummary{
		Count:  len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   sum / time.Duration(len(sorted)),
		P50:    NearestRank(sorted, 0.50),
		P90:    NearestRank(sorted, 0.90),
		P95:    NearestRank(sorted, 0.95),
		P97:    NearestRank(sorted, 0.97),
		P99:    NearestRank(sorted, 0.99),
		P999:   NearestRank(sorted, 0.999),
		Sorted: sorted,
	}, nil
}

// Quantile returns an arbitrary quantile from an already computed summary.
func (s LatencySummary) Quantile(p float64) (time.Duration, error) {
	if len(s.Sorted) == 0 {
		return 0, fmt.Errorf("stats: summary holds no samples")
	}
	if !(p > 0 && p <= 1) {
		return 0, fmt.Errorf("stats: percentile %v outside (0,1]: %w", p, ErrInvalidProbability)
	}
	return NearestRank(s.Sorted, p), nil
}

// FractionOver returns the fraction of samples strictly greater than bound.
// The server and multistream scenarios limit this fraction (e.g. no more than
// 1% of queries may exceed the latency bound).
func FractionOver(samples []time.Duration, bound time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	over := 0
	for _, s := range samples {
		if s > bound {
			over++
		}
	}
	return float64(over) / float64(len(samples))
}
