package loadgen

import (
	"fmt"
	"sync"
	"time"

	"mlperf/internal/stats"
)

// StartTest runs one benchmark scenario against the SUT and returns the
// result. It mirrors the C++ LoadGen's StartTest entry point: it loads the
// sample working set (untimed), generates query traffic according to the
// scenario, collects responses, and reports statistics and validity.
func StartTest(sut SUT, qsl QuerySampleLibrary, settings TestSettings) (*Result, error) {
	if sut == nil {
		return nil, ErrNilSUT
	}
	if qsl == nil {
		return nil, ErrNilQSL
	}
	if err := settings.Validate(); err != nil {
		return nil, err
	}
	if qsl.TotalSampleCount() <= 0 {
		return nil, fmt.Errorf("loadgen: QSL %q reports no samples", qsl.Name())
	}

	run := &activeRun{
		sut:      sut,
		qsl:      qsl,
		settings: settings,
		queryRNG: stats.NewRNG(settings.QuerySeed),
		accRNG:   stats.NewRNG(settings.AccuracyLogSeed),
	}

	// A new test is a new query series: SUTs that latch state at
	// FlushQueries (backend.Remote puts the server's batcher in pass-through
	// mode) re-arm here, so reusing one SUT across runs keeps its configured
	// behavior.
	if r, ok := sut.(interface{ Reopen() }); ok {
		r.Reopen()
	}

	// Untimed: decide the working set and ask the SUT to load it.
	if err := run.loadWorkingSet(); err != nil {
		return nil, err
	}
	defer func() {
		// Unloading failures after a completed run do not invalidate results,
		// but they are surfaced in the validity messages.
		if err := qsl.UnloadSamplesFromRAM(run.loadedSet); err != nil {
			run.result.ValidityMessages = append(run.result.ValidityMessages,
				fmt.Sprintf("unload after run failed: %v", err))
		}
	}()

	run.result = &Result{
		Scenario:           settings.Scenario,
		Mode:               settings.Mode,
		SUTName:            sut.Name(),
		QSLName:            qsl.Name(),
		PerformanceSamples: len(run.loadedSet),
	}
	if settings.MinQueryCount > 0 {
		// Most performance runs complete close to MinQueryCount queries;
		// sizing the latency log up front avoids repeated append growth under
		// the completion lock.
		run.queryLatencies = make([]time.Duration, 0, settings.MinQueryCount)
	}

	var err error
	switch settings.Scenario {
	case SingleStream:
		err = run.runSingleStream()
	case Server:
		err = run.runServer()
	case MultiStream:
		err = run.runMultiStream()
	case Offline:
		err = run.runOffline()
	case Swarm:
		err = run.runSwarm()
	default:
		err = fmt.Errorf("loadgen: unsupported scenario %v", settings.Scenario)
	}
	if err != nil {
		return nil, err
	}

	run.finalize()
	return run.result, nil
}

// activeRun carries the mutable state of one StartTest invocation.
type activeRun struct {
	sut      SUT
	qsl      QuerySampleLibrary
	settings TestSettings

	queryRNG *stats.RNG
	accRNG   *stats.RNG

	loadedSet []int
	sweepPos  int

	start time.Time

	mu               sync.Mutex
	queryLatencies   []time.Duration
	queriesIssued    int
	queriesCompleted int
	samplesIssued    int
	samplesCompleted int
	responsesDropped int
	skippedQueries   int
	accuracyLog      []AccuracyEntry
	lastCompletion   time.Time
	issueLoopEnd     time.Time

	// Swarm per-class bookkeeping, indexed by class position in the
	// settings' effective class list; all guarded by mu.
	classIssued    []int
	classCompleted []int
	classDropped   []int
	classLatencies [][]time.Duration
	swarmChurns    int

	// issueMu serializes the query-construction state (ID counters and the
	// shared sample selector) for scenarios that issue from many goroutines;
	// the single-goroutine scenarios never contend on it.
	issueMu sync.Mutex

	pending sync.WaitGroup

	nextQueryID  uint64
	nextSampleID uint64

	result *Result
}

// loadWorkingSet chooses and loads the sample indices for the run.
func (r *activeRun) loadWorkingSet() error {
	total := r.qsl.TotalSampleCount()
	count := total
	if r.settings.Mode == PerformanceMode {
		perf := r.qsl.PerformanceSampleCount()
		if perf > 0 && perf < count {
			count = perf
		}
	}
	set := make([]int, count)
	for i := range set {
		set[i] = i
	}
	if err := r.qsl.LoadSamplesToRAM(set); err != nil {
		return fmt.Errorf("loadgen: loading %d samples: %w", len(set), err)
	}
	r.loadedSet = set
	return nil
}

// nextIndices returns n sample indices according to the configured policy.
func (r *activeRun) nextIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		switch r.settings.SampleIndexPolicy {
		case UniqueSweep:
			out[i] = r.loadedSet[r.sweepPos%len(r.loadedSet)]
			r.sweepPos++
		case DuplicateSingle:
			out[i] = r.loadedSet[0]
		default:
			out[i] = r.loadedSet[r.queryRNG.Intn(len(r.loadedSet))]
		}
	}
	return out
}

// newQuery assembles a query for the given sample indices.
func (r *activeRun) newQuery(indices []int, scheduled time.Duration) *Query {
	q := &Query{
		ID:        r.nextQueryID,
		Scheduled: scheduled,
		Samples:   make([]QuerySample, len(indices)),
	}
	r.nextQueryID++
	for i, idx := range indices {
		q.Samples[i] = QuerySample{ID: r.nextSampleID, Index: idx}
		r.nextSampleID++
	}
	return q
}

// issue sends a query to the SUT, wiring its completion callback. done, when
// non-nil, is closed after the query fully completes.
func (r *activeRun) issue(q *Query, done chan<- struct{}) {
	// Single-sample queries (the single-stream and server issue paths) do not
	// need the ID→index map; resolving through q.Samples[0] directly keeps the
	// per-query issue path free of map allocations.
	var sampleIndexByID map[uint64]int
	if len(q.Samples) > 1 {
		sampleIndexByID = make(map[uint64]int, len(q.Samples))
		for _, s := range q.Samples {
			sampleIndexByID[s.ID] = s.Index
		}
	}
	sampleIndex := func(id uint64) int {
		if sampleIndexByID != nil {
			return sampleIndexByID[id]
		}
		return q.Samples[0].Index
	}
	q.complete = func(q *Query, responses []Response) {
		completedAt := time.Now()
		var latency time.Duration
		switch r.settings.Scenario {
		case Server, MultiStream, Swarm:
			// Latency is measured from the scheduled arrival, so falling
			// behind schedule counts against the SUT rather than hiding
			// overload.
			latency = completedAt.Sub(r.start.Add(q.Scheduled))
		default:
			latency = completedAt.Sub(q.Issued)
		}
		r.mu.Lock()
		r.queryLatencies = append(r.queryLatencies, latency)
		r.queriesCompleted++
		r.samplesCompleted += len(responses)
		if q.Class >= 0 && q.Class < len(r.classLatencies) {
			r.classCompleted[q.Class]++
			r.classLatencies[q.Class] = append(r.classLatencies[q.Class], latency)
			for _, resp := range responses {
				if resp.Dropped {
					r.classDropped[q.Class]++
				}
			}
		}
		if completedAt.After(r.lastCompletion) {
			r.lastCompletion = completedAt
		}
		logAll := r.settings.Mode == AccuracyMode
		for _, resp := range responses {
			if resp.Dropped {
				// A shed sample carries no prediction: count it (the run is
				// invalid) and keep it out of the accuracy log, which only
				// scores real inference output.
				r.responsesDropped++
				continue
			}
			if logAll || (r.settings.AccuracyLogSamplingRate > 0 && r.accRNG.Float64() < r.settings.AccuracyLogSamplingRate) {
				entry := AccuracyEntry{
					QueryID:     q.ID,
					SampleIndex: sampleIndex(resp.SampleID),
					Data:        resp.Data,
				}
				if r.settings.AccuracySink != nil {
					// Streaming path: the sink consumes the entry immediately
					// (still under r.mu, so calls are serialized) and nothing
					// is retained — Data is not copied.
					r.settings.AccuracySink(entry)
					continue
				}
				data := make([]byte, len(resp.Data))
				copy(data, resp.Data)
				entry.Data = data
				r.accuracyLog = append(r.accuracyLog, entry)
			}
		}
		r.mu.Unlock()
		r.pending.Done()
		if done != nil {
			close(done)
		}
	}

	r.mu.Lock()
	r.queriesIssued++
	r.samplesIssued += len(q.Samples)
	if q.Class >= 0 && q.Class < len(r.classIssued) {
		r.classIssued[q.Class]++
	}
	r.mu.Unlock()

	r.pending.Add(1)
	q.Issued = time.Now()
	r.sut.IssueQuery(q)
}

// markIssueLoopEnd records when the traffic-generation loop stopped. The
// timed portion of the run covers at least this point, so a run whose last
// query completed marginally before the generator observed MinDuration being
// satisfied is not spuriously declared too short.
func (r *activeRun) markIssueLoopEnd() {
	r.mu.Lock()
	r.issueLoopEnd = time.Now()
	r.mu.Unlock()
}

// shouldContinue reports whether a performance run needs more queries to meet
// the minimum query count and duration, respecting MaxQueryCount.
func (r *activeRun) shouldContinue(issued int, elapsed time.Duration) bool {
	if r.settings.MaxQueryCount > 0 && issued >= r.settings.MaxQueryCount {
		return false
	}
	if issued < r.settings.MinQueryCount {
		return true
	}
	return elapsed < r.settings.MinDuration
}

// accuracyIndices returns the full list of sample indices an accuracy run
// must cover (the entire data set).
func (r *activeRun) accuracyIndices() []int {
	total := r.qsl.TotalSampleCount()
	out := make([]int, total)
	for i := range out {
		out[i] = i
	}
	return out
}

// runSingleStream issues one single-sample query at a time, waiting for each
// completion before injecting the next (Figure 4, left).
func (r *activeRun) runSingleStream() error {
	r.start = time.Now()
	if r.settings.Mode == AccuracyMode {
		for _, idx := range r.accuracyIndices() {
			done := make(chan struct{})
			q := r.newQuery([]int{idx}, time.Since(r.start))
			r.issue(q, done)
			<-done
		}
		r.markIssueLoopEnd()
		r.sut.FlushQueries()
		r.pending.Wait()
		return nil
	}
	issued := 0
	for r.shouldContinue(issued, time.Since(r.start)) {
		done := make(chan struct{})
		q := r.newQuery(r.nextIndices(1), time.Since(r.start))
		r.issue(q, done)
		<-done
		issued++
	}
	r.markIssueLoopEnd()
	r.sut.FlushQueries()
	r.pending.Wait()
	return nil
}

// runServer issues single-sample queries at Poisson arrival times
// (Figure 4, third panel): one rate, ServerTargetQPS, for the whole run, with
// the gaps drawn from an RNG seeded by ScheduleSeed.
func (r *activeRun) runServer() error {
	process, err := stats.NewPoissonProcess(stats.NewRNG(r.settings.ScheduleSeed), r.settings.ServerTargetQPS)
	if err != nil {
		return err
	}
	r.start = time.Now()
	if r.settings.Mode == AccuracyMode {
		var offset time.Duration
		for _, idx := range r.accuracyIndices() {
			offset += process.NextGap()
			r.waitUntil(offset)
			q := r.newQuery([]int{idx}, offset)
			r.issue(q, nil)
		}
		r.markIssueLoopEnd()
		r.sut.FlushQueries()
		r.pending.Wait()
		return nil
	}
	issued := 0
	var offset time.Duration
	for r.shouldContinue(issued, time.Since(r.start)) {
		offset += process.NextGap()
		r.waitUntil(offset)
		q := r.newQuery(r.nextIndices(1), offset)
		r.issue(q, nil)
		issued++
	}
	r.markIssueLoopEnd()
	r.sut.FlushQueries()
	r.pending.Wait()
	return nil
}

// runMultiStream issues N-sample queries at a fixed arrival interval,
// skipping intervals while the previous query is still in flight
// (Figure 4, second panel).
func (r *activeRun) runMultiStream() error {
	interval := r.settings.MultiStreamArrivalInterval
	n := r.settings.MultiStreamSamplesPerQuery
	r.start = time.Now()

	indicesFor := func() []int { return r.nextIndices(n) }
	var accuracyQueue [][]int
	if r.settings.Mode == AccuracyMode {
		all := r.accuracyIndices()
		for i := 0; i < len(all); i += n {
			end := i + n
			if end > len(all) {
				end = len(all)
			}
			accuracyQueue = append(accuracyQueue, all[i:end])
		}
	}

	issued := 0
	tick := 0
	var inflight chan struct{}
	inflightSkipped := false
	for {
		elapsed := time.Since(r.start)
		if r.settings.Mode == AccuracyMode {
			if len(accuracyQueue) == 0 {
				break
			}
		} else if !r.shouldContinue(issued, elapsed) {
			break
		}
		tick++
		scheduled := time.Duration(tick) * interval
		r.waitUntil(scheduled)

		if inflight != nil {
			select {
			case <-inflight:
				inflight = nil
			default:
				// Previous query still processing: skip this interval and
				// remember that the in-flight query produced a skipped
				// interval.
				if !inflightSkipped {
					inflightSkipped = true
					r.mu.Lock()
					r.skippedQueries++
					r.mu.Unlock()
				}
				continue
			}
		}

		var indices []int
		if r.settings.Mode == AccuracyMode {
			indices = accuracyQueue[0]
			accuracyQueue = accuracyQueue[1:]
		} else {
			indices = indicesFor()
		}
		done := make(chan struct{})
		q := r.newQuery(indices, scheduled)
		r.issue(q, done)
		inflight = done
		inflightSkipped = false
		issued++
	}
	r.markIssueLoopEnd()
	r.sut.FlushQueries()
	r.pending.Wait()
	return nil
}

// runOffline issues a single query containing every required sample
// (Figure 4, right).
func (r *activeRun) runOffline() error {
	count := r.settings.MinSampleCount
	if r.settings.OfflineExpectedQPS > 0 {
		needed := int(r.settings.OfflineExpectedQPS * r.settings.MinDuration.Seconds())
		if needed > count {
			count = needed
		}
	}
	var indices []int
	if r.settings.Mode == AccuracyMode {
		indices = r.accuracyIndices()
	} else {
		if count <= 0 {
			count = len(r.loadedSet)
		}
		indices = r.nextIndices(count)
	}
	r.start = time.Now()
	done := make(chan struct{})
	q := r.newQuery(indices, 0)
	r.issue(q, done)
	r.markIssueLoopEnd()
	r.sut.FlushQueries()
	<-done
	r.pending.Wait()
	return nil
}

// waitUntil sleeps until the given offset from the run start has passed.
func (r *activeRun) waitUntil(offset time.Duration) {
	remaining := time.Until(r.start.Add(offset))
	if remaining > 0 {
		time.Sleep(remaining)
	}
}

// finalize computes the result summary and validity.
func (r *activeRun) finalize() {
	r.mu.Lock()
	defer r.mu.Unlock()

	res := r.result
	res.QueriesIssued = r.queriesIssued
	res.QueriesCompleted = r.queriesCompleted
	res.SamplesIssued = r.samplesIssued
	res.SamplesCompleted = r.samplesCompleted
	res.ResponsesDropped = r.responsesDropped
	res.SkippedIntervals = r.skippedQueries
	res.AccuracyLog = r.accuracyLog

	end := r.lastCompletion
	if r.issueLoopEnd.After(end) {
		end = r.issueLoopEnd
	}
	if end.IsZero() {
		end = time.Now()
	}
	res.TestDuration = end.Sub(r.start)
	if res.TestDuration <= 0 {
		res.TestDuration = time.Nanosecond
	}

	if len(r.queryLatencies) > 0 {
		if summary, err := stats.Summarize(r.queryLatencies); err == nil {
			res.QueryLatencies = summary
		}
	}

	switch r.settings.Scenario {
	case SingleStream:
		if p, err := stats.Percentile(r.queryLatencies, r.settings.SingleStreamTargetPercentile); err == nil {
			res.SingleStreamLatency = p
		}
	case Server:
		res.ServerScheduledQPS = r.settings.ServerTargetQPS
		res.ServerAchievedQPS = float64(r.queriesCompleted) / res.TestDuration.Seconds()
		res.LatencyBoundViolations = stats.FractionOver(r.queryLatencies, r.settings.ServerTargetLatency)
	case MultiStream:
		res.LatencyBoundViolations = stats.FractionOver(r.queryLatencies, r.settings.MultiStreamArrivalInterval)
		res.MultiStreamStreams = r.settings.MultiStreamSamplesPerQuery
	case Offline:
		res.OfflineSamplesPerSec = float64(r.samplesCompleted) / res.TestDuration.Seconds()
	case Swarm:
		res.ServerScheduledQPS = float64(r.settings.SwarmSessions) * r.settings.SwarmSessionQPS
		res.ServerAchievedQPS = float64(r.queriesCompleted) / res.TestDuration.Seconds()
		res.SwarmSessions = r.settings.SwarmSessions
		res.SwarmChurns = r.swarmChurns
		for i, c := range r.settings.swarmClasses() {
			cr := SwarmClassResult{
				Name:             c.Name,
				TargetLatency:    c.TargetLatency,
				TargetPercentile: c.TargetPercentile,
				QueriesIssued:    r.classIssued[i],
				QueriesCompleted: r.classCompleted[i],
				ResponsesDropped: r.classDropped[i],
			}
			lat := r.classLatencies[i]
			if summary, err := stats.Summarize(lat); err == nil {
				cr.Latencies = summary
			}
			if p, err := stats.Percentile(lat, c.TargetPercentile); err == nil {
				cr.PercentileLatency = p
			}
			cr.BoundViolations = stats.FractionOver(lat, c.TargetLatency)
			if cr.BoundViolations > res.LatencyBoundViolations {
				// The headline violation figure is the worst class's: a
				// latency bound must hold for every class, like every shard.
				res.LatencyBoundViolations = cr.BoundViolations
			}
			res.SwarmClasses = append(res.SwarmClasses, cr)
		}
	}

	res.finalizeValidity(r.settings)
	if r.settings.Scenario == MultiStream && !res.Valid {
		res.MultiStreamStreams = 0
	}
}
