package main

import "math"

// ladder is the fixed geometric ladder of offered rates the capacity search
// probes: 2000 x 1.08^k, k = 0..35 (2.0k to 29.6k QPS).
func ladder() []float64 {
	rungs := make([]float64, 36)
	for k := range rungs {
		rungs[k] = 2000 * math.Pow(1.08, float64(k))
	}
	return rungs
}

// probe is the verdict on one rung: a short phase of Server repetitions at
// that offered rate.
type probe struct {
	Rung int     `json:"rung"`
	Rate float64 `json:"offered_qps"`
	// Valid: the rate is served within the latency bound, nothing failed and
	// the achieved rate kept up. Saturated: the SUT is past what it can
	// serve at all — the median latency itself is over the bound, the
	// achieved rate fell behind, or operations failed.
	Valid     bool    `json:"valid"`
	Saturated bool    `json:"saturated"`
	Achieved  float64 `json:"achieved_qps"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	Why       string  `json:"why,omitempty"`
	// Reps is how many repetitions the probe ran; Disturbed says too few of
	// them were undisturbed, so disturbed ones voted too.
	Reps      int  `json:"repetitions,omitempty"`
	Disturbed bool `json:"host_disturbed,omitempty"`
}

// searchLadder finds the highest rung that run reports valid. Validity is
// not monotone in the rate — under a batching server the tail can be worse at
// a middling rate, where batches wait to fill, than at a high one — but
// saturation is, so the search first bisects for the lowest saturated rung,
// then walks down from the rung below it until a probe is valid, and probes
// that winner once more; if the confirmation fails it keeps walking down. It
// returns the winning rung (-1 when none is valid), the probe that confirmed
// it, the last failed probe of the rung above it (nil at the top of the
// ladder), and every probe made.
func searchLadder(rungs int, run func(rung int) probe) (best int, confirmed, above *probe, all []probe) {
	try := func(rung int) probe {
		p := run(rung)
		p.Rung = rung
		all = append(all, p)
		return p
	}
	lo, hi := -1, rungs // highest known unsaturated, lowest known saturated
	seen := map[int]probe{}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		p := try(mid)
		seen[mid] = p
		if p.Saturated {
			hi = mid
		} else {
			lo = mid
		}
	}
	if p, ok := seen[hi]; ok {
		above = &p
	}
	for r := lo; r >= 0; r-- {
		// The bisection has probed some of these rungs already; a rung it
		// found valid goes straight to its confirmation.
		p, ok := seen[r]
		if !ok {
			p = try(r)
		}
		if p.Valid {
			if p = try(r); p.Valid {
				return r, &p, above, all
			}
		}
		above = &p
	}
	return -1, nil, above, all
}
