package main

import (
	"sort"
	"time"
)

// The sizing host is a shared VM whose vCPUs run 1.4-2.4x slower for a
// quarter of a second to a few seconds at a time, for 95% of the time in bad
// minutes and hardly at all in good ones. A run that happens to sit in more
// of those spells than the next one differs from it by 10-45%, which no bound
// survives. So every repetition (and every set-up) is bracketed by a host
// probe — a fixed loop of the benchmark's own, nothing of the program — and
// a repetition counts only when the host ran the probe at full speed
// immediately before and after it. Whether a repetition is kept is decided by
// the probe alone, never by the repetition's own numbers, so a slow spell of
// the program's making cannot be discarded.

// probeSink keeps the probe's arithmetic from being optimised away.
var probeSink float32

// probeRounds sizes one probe: about 2 ms on the sizing host at full speed.
const probeRounds = 2700

// probeHost runs the reference loop once and returns how long it took. The
// loop is a serial chain of float32 multiply-adds over a 4 KiB stack array:
// it depends on the core's speed and on nothing the program could change. It
// runs on one CPU: on the sizing host a slow spell hits both vCPUs alike,
// and a probe on both at once mostly measured how long the idle one took to
// wake.
func probeHost() time.Duration {
	start := time.Now()
	var buf [1024]float32
	for i := range buf {
		buf[i] = float32(i) * 0.001
	}
	var acc float32
	for r := 0; r < probeRounds; r++ {
		for i := range buf {
			acc += buf[i] * 1.0001
			buf[i] = acc * 0.5
		}
	}
	probeSink = acc
	return time.Since(start)
}

// disturbedBeyond is how much slower than the run's fastest probe a probe
// may read before the host counts as disturbed. Undisturbed probes spread by
// under 10%; a disturbed one reads 1.3-2.4x.
const disturbedBeyond = 1.15

// minKept is the fewest repetitions a phase's medians are taken over.
const minKept = 5

// hostWatch remembers the fastest host probe of the run, which is what
// "undisturbed" is judged against.
type hostWatch struct{ fastest time.Duration }

func (h *hostWatch) probe() time.Duration {
	p := probeHost()
	if h.fastest == 0 || p < h.fastest {
		h.fastest = p
	}
	return p
}

// bracket is the pair of host probes around one repetition or set-up.
type bracket struct{ before, after time.Duration }

func (b bracket) slower() time.Duration { return max(b.before, b.after) }

// quietOnes reports which of the bracketed repetitions to keep: those with
// the host undisturbed on both sides, judged against fastest (the fastest
// probe of the whole run). When those are fewer than atLeast, the ones with
// the next fastest probes around them make up the number and enough is
// false.
func quietOnes(brackets []bracket, fastest time.Duration, atLeast int) (keep []bool, enough bool) {
	limit := time.Duration(float64(fastest) * disturbedBeyond)
	order := make([]int, len(brackets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return brackets[order[i]].slower() < brackets[order[j]].slower() })
	keep = make([]bool, len(brackets))
	enough = true
	for n, i := range order {
		switch {
		case brackets[i].slower() <= limit:
			keep[i] = true
		case n < atLeast:
			keep[i], enough = true, false
		}
	}
	return keep, enough
}
