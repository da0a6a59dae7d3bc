package main

import (
	"fmt"
	"math"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
)

// runConfig is how long and how often one invocation measures.
type runConfig struct {
	seed    uint64
	seconds float64
	// setups is the number of full set-ups setup_s is the median of.
	setups int
	// repLength is the length of one SingleStream or Server repetition; an
	// Offline repetition is one query sized (workload.offlineRate) to take
	// about as long. It is short because a repetition is the unit the host
	// probe keeps or discards, and the host's slow spells last from a
	// quarter of a second to a few seconds.
	repLength time.Duration
	// tracedReps is how many repetitions the traced run makes, untraced and
	// then traced.
	tracedReps int
	// isolatedWindow is one timing window of an isolated loop, and
	// isolatedQueries the size of an isolated LoadGen run or serving burst.
	isolatedWindow  time.Duration
	isolatedQueries int
	traceOut        string
}

func (c runConfig) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// repetition is what one timed repetition contributes.
type repetition struct {
	Phase string `json:"phase"`
	// Rate is the offered rate of a Server repetition.
	Rate       float64 `json:"offered_qps,omitempty"`
	Throughput float64 `json:"throughput_per_s"` // samples (Offline) or queries per second
	P50        float64 `json:"p50_us"`
	Tail       float64 `json:"tail_us"`
	Samples    int     `json:"samples"`
	Queries    int     `json:"queries"`
	Failed     int     `json:"ops_failed"`
	// CPUMicros is the process's user+system CPU time over the repetition.
	CPUMicros float64 `json:"cpu_us"`
	// ProbeBeforeMs and ProbeAfterMs are the host probes around the
	// repetition; Kept says the repetition counts.
	ProbeBeforeMs float64 `json:"probe_before_ms"`
	ProbeAfterMs  float64 `json:"probe_after_ms"`
	Kept          bool    `json:"kept"`
}

// timedRep runs one repetition of the scenario. rate is the offered rate of a
// Server repetition.
func (d *deployment) timedRep(scenario loadgen.Scenario, seeds runSeeds, length time.Duration, rate float64) (repetition, runResult, error) {
	cpuStart := cpuTime()
	res, err := d.run(d.settings(scenario, seeds, length, rate, int(float64(d.w.offlineRate)*length.Seconds())))
	if err != nil {
		return repetition{}, res, err
	}
	rep := repetition{Samples: res.SamplesCompleted, Queries: res.QueriesCompleted, Failed: res.failed, CPUMicros: micros(cpuTime() - cpuStart)}
	switch scenario {
	case loadgen.Offline:
		// One query and no distribution: its wall time per sample stands in
		// for latency.
		rep.Throughput = res.OfflineSamplesPerSec
		rep.P50 = 1e6 / res.OfflineSamplesPerSec
	case loadgen.SingleStream:
		rep.Throughput = float64(res.QueriesCompleted) / res.TestDuration.Seconds()
		rep.P50 = micros(res.QueryLatencies.P50)
		rep.Tail = micros(res.SingleStreamLatency)
	case loadgen.Server:
		rep.Rate = rate
		rep.Throughput = res.ServerAchievedQPS
		rep.P50 = micros(res.QueryLatencies.P50)
		rep.Tail = micros(res.QueryLatencies.P99)
	}
	return rep, res, nil
}

// repsResult is a phase of timed repetitions and what the process spent on it.
type repsResult struct {
	reps      []repetition
	brackets  []bracket
	attempted int
	failed    int
	used      usage
	samples   int
	// wall is the time spent inside the repetitions, host probes excluded.
	wall time.Duration
	// quiet is false when too few repetitions were undisturbed and the next
	// quietest were kept too.
	quiet bool
}

// kept returns f of every kept repetition.
func (r repsResult) kept(f func(repetition) float64) []float64 {
	var out []float64
	for _, rep := range r.reps {
		if rep.Kept {
			out = append(out, f(rep))
		}
	}
	return out
}

// keptCount sums f over the kept repetitions.
func (r repsResult) keptCount(f func(repetition) int) int {
	n := 0
	for _, rep := range r.reps {
		if rep.Kept {
			n += f(rep)
		}
	}
	return n
}

func (r repsResult) detail() string {
	s := fmt.Sprintf("%d of %d repetitions kept", r.keptCount(func(repetition) int { return 1 }), len(r.reps))
	if !r.quiet {
		s += ", some of them disturbed"
	}
	return s
}

func throughputOf(r repetition) float64 { return r.Throughput }
func p50Of(r repetition) float64        { return r.P50 }
func tailOf(r repetition) float64       { return r.Tail }
func cpuPerSampleOf(r repetition) float64 {
	return r.CPUMicros / float64(max(r.Samples, 1))
}

// timedReps runs repetitions, each between two host probes, until enough
// says so (it sees the repetitions so far and the time since the first
// started), then marks the ones to keep: the undisturbed ones, at least
// atLeast. Repetition i's inputs are a function of the seed, the phase and
// first+i.
func (d *deployment) timedReps(cfg runConfig, host *hostWatch, scenario loadgen.Scenario, phase, first int, name string, rate float64, atLeast int, enough func(r *repsResult, elapsed time.Duration) bool) (repsResult, error) {
	var out repsResult
	usageStart, start := readUsage(), time.Now()
	before := host.probe()
	for i := 0; !enough(&out, time.Since(start)); i++ {
		repStart := time.Now()
		rep, res, err := d.timedRep(scenario, seedsFor(cfg.seed, phase, first+i), cfg.repLength, rate)
		if err != nil {
			return out, err
		}
		out.wall += time.Since(repStart)
		after := host.probe()
		rep.Phase, rep.ProbeBeforeMs, rep.ProbeAfterMs = name, before.Seconds()*1e3, after.Seconds()*1e3
		out.brackets = append(out.brackets, bracket{before, after})
		before = after
		out.reps = append(out.reps, rep)
		out.attempted += res.attempted
		out.failed += res.failed
		out.samples += rep.Samples
	}
	out.used = readUsage().since(usageStart)
	// Judged against the fastest probe so far; a later phase can only
	// lower it.
	keep, quiet := quietOnes(out.brackets, host.fastest, atLeast)
	for i := range out.reps {
		out.reps[i].Kept = keep[i]
	}
	out.quiet = quiet
	return out, nil
}

// forWindow is the stopping rule of a phase that fills a time window with at
// least atLeast repetitions.
func forWindow(window time.Duration, atLeast int) func(*repsResult, time.Duration) bool {
	return func(r *repsResult, elapsed time.Duration) bool { return len(r.reps) >= atLeast && elapsed >= window }
}

// remoteFailures returns the Remote's own drop counters, cumulative since the
// deployment started.
func (d *deployment) remoteFailures() (rejected, expired, transport int64) {
	if d.loop == nil {
		return 0, 0, 0
	}
	return d.loop.Remote.Rejected(), d.loop.Remote.Expired(), d.loop.Remote.TransportDrops()
}

// newRemoteLosses returns by how much the Remote's drop counters grew since
// the last call. Over any phase but the capacity search they must not move.
func (d *deployment) newRemoteLosses() int {
	rejected, expired, transport := d.remoteFailures()
	total := rejected + expired + transport
	grew := total - d.lostSeen
	d.lostSeen = total
	return int(grew)
}

// setUp deploys the workload and runs its warm-up, returning how long that
// took: model and data build, calibration, QSL load, server listen, dial and
// the fixed-size warm-up.
func setUp(w workload, seed uint64, tr *tracer) (*deployment, float64, error) {
	start := time.Now()
	d, err := deploy(w, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := d.warm(seed); err != nil {
		d.Close()
		return nil, 0, err
	}
	return d, time.Since(start).Seconds(), nil
}

// serverFixedShare is the part of server-wire's window spent at the fixed
// offered rate; bursts that measure raw capacity have the rest.
const serverFixedShare = 0.6

// minKeptFew is the fewest a median is taken over where only a handful are
// run at all: the set-ups, and the repetitions of the traced run.
const minKeptFew = 3

// runUntraced measures the end-to-end metrics: set-up (several times, the
// last kept), the correctness gate, then the timed repetitions and, on
// server-wire, the bursts.
func runUntraced(w workload, cfg runConfig) (*report, error) {
	rep := newReport(w, cfg, false)
	host := &hostWatch{}
	var d *deployment
	var setups []float64
	var brackets []bracket
	before := host.probe()
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return nil, err
			}
		}
		var took float64
		var err error
		if d, took, err = setUp(w, cfg.seed, nil); err != nil {
			return nil, err
		}
		after := host.probe()
		setups = append(setups, took)
		brackets = append(brackets, bracket{before, after})
		before = after
	}
	defer d.Close()

	attempted, failed, detail, err := d.gate(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.phase("gate", attempted, failed, detail)

	share := 1.0
	if w.scenario == loadgen.Server {
		share = serverFixedShare
	}
	timed, err := d.timedReps(cfg, host, w.scenario, phaseTimed, 0, "timed", serverFixedQPS, minKept, forWindow(cfg.window(share), minKept))
	if err != nil {
		return nil, err
	}
	timed.failed = max(timed.failed, d.newRemoteLosses())
	rep.phase("timed", timed.attempted, timed.failed, timed.detail())
	rep.addReps(timed)
	quiet := timed.quiet

	means := w.meanings()
	samples, queries := timed.keptCount(func(r repetition) int { return r.Samples }), timed.keptCount(func(r repetition) int { return r.Queries })
	throughput := timed
	if w.scenario == loadgen.Server {
		// The fixed rate must be one the program serves validly: if the
		// median undisturbed repetition misses the Table III bound, the run
		// is INVALID and fails. A disturbed host proves nothing either way.
		p99, bound := median(timed.kept(tailOf)), micros(d.asm.Spec.ServerLatencyBound)
		failed := 0
		if p99 > bound {
			rep.flag("over_latency_bound")
			if timed.quiet {
				failed = max(queries/100, 1)
			}
		}
		rep.phase("latency-bound", queries, failed, fmt.Sprintf("p99 %.0f us in the median kept repetition, bound %.0f us", p99, bound))
		// Raw capacity: Offline bursts through the same deployment.
		if throughput, err = d.timedReps(cfg, host, loadgen.Offline, phaseBurst, 0, "burst", 0, minKept, forWindow(cfg.window(1-share), minKept)); err != nil {
			return nil, err
		}
		throughput.failed = max(throughput.failed, d.newRemoteLosses())
		rep.phase("burst", throughput.attempted, throughput.failed, throughput.detail())
		rep.addReps(throughput)
		quiet = quiet && throughput.quiet
	}
	rep.setMedian("throughput_per_s", throughput.kept(throughputOf), "1/s", throughput.keptCount(func(r repetition) int { return r.Samples }), means.throughput)
	rep.setMedian("latency_p50_us", timed.kept(p50Of), "us", queries, means.p50)
	rep.setMedian("cpu_us_per_sample", timed.kept(cpuPerSampleOf), "us", samples, "process user+system CPU (getrusage) over a repetition / samples it completed")
	if w.scenario != loadgen.Offline {
		rep.alsoMedian("latency_tail_us", timed.kept(tailOf), "us", queries, means.tail)
	}

	keep, setupsQuiet := quietOnes(brackets, host.fastest, minKeptFew)
	var keptSetups []float64
	for i, s := range setups {
		if keep[i] {
			keptSetups = append(keptSetups, s)
		}
	}
	rep.setMedian("setup_s", keptSetups, "s", len(keptSetups), fmt.Sprintf("build + calibrate + QSL load + deploy + fixed-size warm-up, median of the %d quietest of %d full set-ups in this process", len(keptSetups), len(setups)))
	if !quiet || !setupsQuiet {
		rep.flag("host_disturbed")
	}
	rep.HostProbeFastestMs = host.fastest.Seconds() * 1e3
	return rep, nil
}

// runTraced measures the per-layer metrics: untraced reference repetitions,
// then the same repetitions with the decorators installed, then the isolated
// loops.
func runTraced(w workload, cfg runConfig) (*report, error) {
	rep := newReport(w, cfg, true)
	host := &hostWatch{}
	count := func(r *repsResult, _ time.Duration) bool { return len(r.reps) >= cfg.tracedReps }

	// Untraced reference on a deployment of its own.
	plain, _, err := setUp(w, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	ref, err := plain.timedReps(cfg, host, w.scenario, phaseTimed, 0, "reference", serverFixedQPS, minKeptFew, count)
	// Read before the capacity search, whose probes above capacity may shed.
	rejected, expired, transport := plain.remoteFailures()
	searchQuiet := true
	if err == nil {
		rep.phase("reference", ref.attempted, max(ref.failed, int(rejected+expired+transport)), ref.detail())
		rep.addReps(ref)
		if w.scenario == loadgen.Server {
			searchQuiet, err = plain.capacitySearch(cfg, host, rep)
		}
	}
	if cerr := plain.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if plain.loop != nil {
		rep.set("backend.remote_rejected", float64(rejected), "count", "Remote.Rejected() after the untraced reference repetitions")
		rep.set("backend.remote_expired", float64(expired), "count", "Remote.Expired() after the untraced reference repetitions")
		rep.set("backend.remote_transport_drops", float64(transport), "count", "Remote.TransportDrops() after the untraced reference repetitions")
	}
	if w.scenario != loadgen.Offline {
		rep.setMedian("loadgen.latency_tail_us", ref.kept(tailOf), "us", ref.keptCount(func(r repetition) int { return r.Queries }), w.meanings().tail+", untraced reference repetitions")
	}
	rep.set("process.allocs_per_sample", float64(ref.used.mallocs)/float64(max(ref.samples, 1)), "count", "runtime.MemStats.Mallocs over the untraced reference repetitions / samples completed")
	rep.set("process.gc_cycles", float64(ref.used.gcs), "count", "GC cycles over the untraced reference repetitions")
	rep.set("process.gc_pause_total_ms", float64(ref.used.pause)/1e6, "ms", "stop-the-world pause total over the untraced reference repetitions")
	// Read before the decorators and the span ring exist: this is the
	// untraced program's memory.
	rep.set("process.peak_rss_mib", peakRSSMiB(), "MiB", "VmHWM after the untraced reference repetitions")

	// The same repetitions behind the decorators.
	tr := newTracer()
	d, _, err := setUp(w, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	rep.set("dataset.load_s", d.loadS, "s", "LoadSamplesToRAM + Unload of the whole data set at set-up")
	attempted, failed, detail, err := d.gate(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.phase("gate-through-decorators", attempted, failed, detail)
	tr.reset()
	traced, err := d.timedReps(cfg, host, w.scenario, phaseTraced, 0, "traced", serverFixedQPS, minKeptFew, count)
	if err != nil {
		return nil, err
	}
	rep.phase("traced", traced.attempted, traced.failed, traced.detail())
	rep.addReps(traced)
	if base, with := median(ref.kept(cpuPerSampleOf)), median(traced.kept(cpuPerSampleOf)); base > 0 {
		rep.set("bench.trace_overhead_share", 100*(with-base)/base, "%",
			fmt.Sprintf("traced %.2f us CPU per sample against %.2f untraced", with, base))
	}
	d.tracedMetrics(rep, traced.wall)
	if cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, tr.recorded()); err != nil {
			return nil, err
		}
	}

	if err := isolatedTensor(cfg.isolatedWindow, rep); err != nil {
		return nil, err
	}
	if err := isolatedPayload(cfg.isolatedWindow, rep); err != nil {
		return nil, err
	}
	if err := isolatedModel(cfg.isolatedWindow, d, rep); err != nil {
		return nil, err
	}
	if err := isolatedLoadgen(d.asm.QSL, cfg.seed, cfg.isolatedQueries, rep); err != nil {
		return nil, err
	}
	if w.wire {
		if err := isolatedServe(d, cfg.seed, cfg.repLength, cfg.isolatedQueries, rep); err != nil {
			return nil, err
		}
	}
	if !ref.quiet || !traced.quiet || !searchQuiet {
		rep.flag("host_disturbed")
	}
	rep.HostProbeFastestMs = host.fastest.Seconds() * 1e3
	return rep, nil
}

// meanings says what the scenario-neutral metric names stand for on one
// workload.
type meanings struct{ throughput, p50, tail string }

func (w workload) meanings() meanings {
	switch w.scenario {
	case loadgen.SingleStream:
		return meanings{
			throughput: "queries completed per second, one in flight",
			p50:        "median query latency",
			tail:       "p90 query latency (the paper's SingleStream metric)",
		}
	case loadgen.Server:
		return meanings{
			throughput: "raw capacity: Offline samples per second in bursts through the same deployment, no latency bound",
			p50:        fmt.Sprintf("median latency from scheduled arrival at %d offered QPS", serverFixedQPS),
			tail:       fmt.Sprintf("p99 latency from scheduled arrival at %d offered QPS", serverFixedQPS),
		}
	default:
		return meanings{
			throughput: "Offline samples per second (the paper's Offline metric)",
			p50:        "wall time per sample; derived: an Offline repetition is one query and has no latency of its own",
		}
	}
}

// A capacity probe is a short phase of repetitions at one offered rate: it
// runs until probeKept of them are undisturbed, or probeMost in all. A
// disturbed host can fail a rate the program serves, so only undisturbed
// repetitions vote when there are enough of them.
const (
	probeKept = 5
	probeMost = 10
)

// probeRung runs one capacity probe. A rate is valid iff, over the kept
// repetitions at that rate, no operation failed, the median p99 from the
// scheduled arrival is within the Table III bound, and the median achieved
// rate kept up with the offered one: at least 98% of it, less three standard
// deviations of a Poisson count of a repetition's size, so a short
// repetition is not failed by its own arrival noise.
func (d *deployment) probeRung(cfg runConfig, host *hostWatch, rung int, rate float64, firstRep int) (probe, repsResult, error) {
	reps, err := d.timedReps(cfg, host, loadgen.Server, phaseSearch, firstRep, fmt.Sprintf("search-rung-%d", rung), rate, probeKept,
		func(r *repsResult, _ time.Duration) bool {
			limit := time.Duration(float64(host.fastest) * disturbedBeyond)
			undisturbed := 0
			for _, b := range r.brackets {
				if b.slower() <= limit {
					undisturbed++
				}
			}
			return undisturbed >= probeKept || len(r.reps) >= probeMost
		})
	if err != nil {
		return probe{}, reps, err
	}
	bound := micros(d.asm.Spec.ServerLatencyBound) / 1e3
	p := probe{Rate: rate, Achieved: median(reps.kept(throughputOf)), P50Millis: median(reps.kept(p50Of)) / 1e3, P99Millis: median(reps.kept(tailOf)) / 1e3,
		Attempted: reps.keptCount(func(r repetition) int { return r.Queries }), Failed: reps.keptCount(func(r repetition) int { return r.Failed }),
		Reps: len(reps.reps), Disturbed: !reps.quiet}
	floor := rate * (0.98 - 3/math.Sqrt(rate*cfg.repLength.Seconds()))
	switch {
	case p.Failed > 0:
		p.Saturated, p.Why = true, "operations failed"
	case p.Achieved < floor:
		p.Saturated, p.Why = true, fmt.Sprintf("achieved rate fell behind the offered one (floor %.0f)", floor)
	case p.P50Millis > bound:
		p.Saturated, p.Why = true, fmt.Sprintf("median latency over the %.0f ms bound", bound)
	case p.P99Millis > bound:
		p.Why = fmt.Sprintf("p99 over the %.0f ms bound", bound)
	default:
		p.Valid = true
	}
	return p, reps, nil
}

// capacitySearch runs the ladder search for the highest offered rate the
// wire SUT serves validly and records it as serve.max_valid_qps. The result
// is the rate at which the p99 meets the bound, interpolated between the
// highest valid rung and the failed rung above it (the rung's own rate when
// that one failed for another reason), so it does not jump by a whole rung
// when a rung's p99 sits at the bound. quiet is false if a probe found too
// few undisturbed repetitions.
func (d *deployment) capacitySearch(cfg runConfig, host *hostWatch, rep *report) (quiet bool, err error) {
	rungs := ladder()
	bound := micros(d.asm.Spec.ServerLatencyBound) / 1e3
	var failure error
	quiet = true
	next := 0
	best, confirmed, above, probes := searchLadder(len(rungs), func(rung int) probe {
		if failure != nil {
			return probe{Saturated: true}
		}
		p, reps, err := d.probeRung(cfg, host, rung, rungs[rung], next)
		if err != nil {
			failure = err
			return probe{Saturated: true}
		}
		next += len(reps.reps)
		rep.addReps(reps)
		quiet = quiet && reps.quiet
		return p
	})
	if failure != nil {
		return false, failure
	}
	rep.Search = probes
	if best < 0 {
		rep.flag("no_valid_rung")
		return quiet, nil
	}
	capacity := rungs[best]
	detail := "top of the ladder"
	if above != nil {
		detail = fmt.Sprintf("rung %d (%.0f QPS) probed and failed: %s", above.Rung, above.Rate, above.Why)
		if above.Rung == best+1 && above.Failed == 0 && above.P99Millis > bound {
			capacity += (above.Rate - capacity) * (bound - confirmed.P99Millis) / (above.P99Millis - confirmed.P99Millis)
		}
	}
	rep.phase("capacity-search", confirmed.Attempted, confirmed.Failed, fmt.Sprintf("%d probes; rung %d (%.0f QPS) valid twice; %s", len(probes), best, rungs[best], detail))
	rep.set("serve.max_valid_qps", capacity, "1/s", fmt.Sprintf("highest rate of the ladder 2000x1.08^k served with p%g <= %v, interpolated to where p99 meets the bound",
		100*d.asm.Spec.ServerLatencyPercentile, d.asm.Spec.ServerLatencyBound))
	return quiet, nil
}

// selfTimeRow is one line of the self-time table.
type selfTimeRow struct {
	Layer string `json:"layer"`
	Count int64  `json:"count"`
	// BusyMillis is the summed self time of the layer's spans. WaitedMillis
	// is the time work waited on the layer where the boundary shows it:
	// queries waiting for the generator (schedule lag) under loadgen, the
	// generator waiting inside IssueQuery under backend. Share is the part of
	// the queries' wall time attributed to the layer.
	BusyMillis   float64 `json:"busy_ms"`
	WaitedMillis float64 `json:"waited_ms"`
	Share        float64 `json:"share_of_query_time"`
}

// tracedMetrics derives the traced per-layer metrics from the spans and
// counters of the traced repetitions, which took wall.
func (d *deployment) tracedMetrics(rep *report, wall time.Duration) {
	tr := d.tr
	spans := tr.recorded()
	finishRuns(spans)
	rep.SpansDropped = tr.dropped.Load()

	var lag, sut, overhead, predict []time.Duration
	var waited [numSpanKinds]int64
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		switch s.Kind {
		case spanQuery:
			lag = append(lag, time.Duration(s.Lateness))
			waited[spanQuery] += s.Lateness
		case spanSUT:
			sut = append(sut, time.Duration(s.dur()))
		case spanPredict:
			if s.Lead {
				predict = append(predict, time.Duration(s.dur()))
			}
		}
	}
	a := attribute(spans)
	for n, r := range a.roots {
		// The SUT span less the Predict time inside it.
		overhead = append(overhead, time.Duration(spans[r].dur()-a.perRoot[n][spanQuery]-a.perRoot[n][spanPredict]))
	}
	tr.mu.Lock()
	block := make([]time.Duration, len(tr.issueBlock))
	for i, b := range tr.issueBlock {
		block[i] = time.Duration(b)
		waited[spanSUT] += b
	}
	tr.mu.Unlock()
	lag, sut, overhead, predict, block = sortDurations(lag), sortDurations(sut), sortDurations(overhead), sortDurations(predict), sortDurations(block)

	rep.set("loadgen.schedule_lag_p50_us", micros(percentile(lag, 0.50)), "us", "Query.Issued - (run start + Query.Scheduled), run start taken from the least-late query")
	rep.set("loadgen.schedule_lag_p99_us", micros(percentile(lag, 0.99)), "us", fmt.Sprintf("over %d queries", len(lag)))
	if d.w.scenario == loadgen.Server && percentile(lag, 0.99) > time.Millisecond {
		rep.flag("generator_limited")
	}
	calls := tr.getCalls.Load()
	rep.set("dataset.get_calls", float64(calls), "count", "SampleStore.Get calls in the traced repetitions")
	rep.set("dataset.get_ns", float64(tr.getNs.Load())/float64(max(calls, 1)), "ns", "mean SampleStore.Get time")
	pcalls := tr.predictCalls.Load()
	busy := 100 * float64(tr.predictNs.Load()) / (float64(wall) * float64(d.workers))
	rep.set("model.batch_mean", float64(tr.predictSamples.Load())/float64(max(pcalls, 1)), "count", fmt.Sprintf("samples per Engine.Predict call over %d calls", pcalls))
	rep.set("model.predict_p50_us", micros(percentile(predict, 0.50)), "us", "median Engine.Predict call")
	if d.loop == nil {
		rep.set("backend.native_query_p50_us", micros(percentile(sut, 0.50)), "us", fmt.Sprintf("IssueQuery to completion over %d queries", len(sut)))
		rep.set("backend.native_overhead_p50_us", micros(percentile(overhead, 0.50)), "us", "query span less the Predict time inside it")
		rep.set("backend.native_predict_busy_share", busy, "%", fmt.Sprintf("sum of Predict time / (wall x %d workers)", d.workers))
		rep.set("backend.native_issue_block_p99_us", micros(percentile(block, 0.99)), "us", "time IssueQuery kept the LoadGen's issue loop")
	} else {
		snap := d.loop.Server.Metrics()
		rep.set("backend.remote_rtt_p50_us", micros(percentile(sut, 0.50)), "us", fmt.Sprintf("IssueQuery to completion over %d queries", len(sut)))
		rep.set("backend.remote_rtt_p99_us", micros(percentile(sut, 0.99)), "us", "")
		rep.set("backend.remote_issue_block_p99_us", micros(percentile(block, 0.99)), "us", "time IssueQuery kept the LoadGen's issue loop (send + in-flight window)")
		if d.w.scenario != loadgen.Offline {
			// Per-request figures only subtract from a per-request round
			// trip; an Offline query's span is the whole burst.
			rep.set("backend.remote_client_overhead_p50_us", micros(percentile(sut, 0.50)-snap.QueueP50-snap.ServiceP50), "us", "rtt p50 - serve queue p50 - serve service p50")
		}
		serveMetrics(rep, snap)
		rep.set("serve.engine_busy_share", busy, "%", fmt.Sprintf("sum of Predict time / (wall x %d serve workers)", d.workers))
		rep.set("serve.predict_calls", float64(pcalls), "count", "Engine.Predict calls the server made")
	}

	for k := spanKind(0); k < numSpanKinds; k++ {
		share := 0.0
		if a.total > 0 {
			share = float64(a.wall[k]) / float64(a.total)
		}
		rep.SelfTime = append(rep.SelfTime, selfTimeRow{Layer: spanLayers[k], Count: a.count[k],
			BusyMillis: float64(a.busy[k]) / 1e6, WaitedMillis: float64(waited[k]) / 1e6, Share: share})
	}
}

// serveMetrics copies the server's own snapshot into the report.
func serveMetrics(rep *report, snap serve.Snapshot) {
	rep.set("serve.queue_p50_us", micros(snap.QueueP50), "us", "admission-queue wait, Server.Metrics() after the traced repetitions")
	rep.set("serve.queue_p99_us", micros(snap.QueueP99), "us", "")
	rep.set("serve.service_p50_us", micros(snap.ServiceP50), "us", "inference + encode + response write")
	rep.set("serve.service_p99_us", micros(snap.ServiceP99), "us", "")
	var batches float64
	for _, b := range snap.BatchHistogram {
		batches += float64(b.Count)
	}
	if batches > 0 {
		rep.set("serve.batch_mean", float64(snap.Completed)/batches, "count", fmt.Sprintf("requests completed / %.0f dispatched batches", batches))
	}
	rep.set("serve.admitted", float64(snap.Admitted), "count", "since the server started: warm-up, gate and traced repetitions")
	rep.set("serve.completed", float64(snap.Completed), "count", "")
	rep.set("serve.rejected", float64(snap.Rejected), "count", "")
	rep.set("serve.shed", float64(snap.Shed), "count", "")
	rep.set("serve.expired", float64(snap.Expired), "count", "")
	rep.set("serve.errors", float64(snap.Errors), "count", "")
}
