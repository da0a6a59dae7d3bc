package loadgen

import (
	"testing"
	"time"

	"mlperf/internal/stats"
)

// fastSettings returns scenario settings scaled down so tests complete in
// milliseconds while still exercising the production code paths.
func fastSettings(s Scenario) TestSettings {
	ts := DefaultSettings(s)
	ts.MinDuration = 10 * time.Millisecond
	switch s {
	case SingleStream:
		ts.MinQueryCount = 50
	case Server:
		ts.MinQueryCount = 100
		ts.ServerTargetQPS = 5000
		ts.ServerTargetLatency = 20 * time.Millisecond
	case MultiStream:
		ts.MinQueryCount = 20
		ts.MultiStreamSamplesPerQuery = 4
		ts.MultiStreamArrivalInterval = 2 * time.Millisecond
	case Offline:
		ts.MinSampleCount = 512
		// The fake SUT answers instantly, so do not require a minimum
		// wall-clock duration; a dedicated test covers duration enforcement.
		ts.MinDuration = 0
	}
	return ts
}

func TestStartTestArgumentErrors(t *testing.T) {
	qsl := newFakeQSL(16, 16)
	sut := newFakeSUT(0, false)
	if _, err := StartTest(nil, qsl, fastSettings(SingleStream)); err != ErrNilSUT {
		t.Errorf("nil SUT: got %v", err)
	}
	if _, err := StartTest(sut, nil, fastSettings(SingleStream)); err != ErrNilQSL {
		t.Errorf("nil QSL: got %v", err)
	}
	bad := fastSettings(SingleStream)
	bad.MinQueryCount = 0
	if _, err := StartTest(sut, qsl, bad); err == nil {
		t.Error("invalid settings: expected error")
	}
	empty := newFakeQSL(0, 0)
	if _, err := StartTest(sut, empty, fastSettings(SingleStream)); err == nil {
		t.Error("empty QSL: expected error")
	}
	failing := newFakeQSL(16, 16)
	failing.failLoad = true
	if _, err := StartTest(sut, failing, fastSettings(SingleStream)); err == nil {
		t.Error("failing load: expected error")
	}
}

func TestSingleStreamPerformanceRun(t *testing.T) {
	qsl := newFakeQSL(64, 32)
	sut := newFakeSUT(100*time.Microsecond, false)
	settings := fastSettings(SingleStream)
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != SingleStream || res.Mode != PerformanceMode {
		t.Errorf("result labels wrong: %v %v", res.Scenario, res.Mode)
	}
	if res.QueriesIssued < settings.MinQueryCount {
		t.Errorf("issued %d queries, want >= %d", res.QueriesIssued, settings.MinQueryCount)
	}
	if res.QueriesCompleted != res.QueriesIssued {
		t.Errorf("completed %d != issued %d", res.QueriesCompleted, res.QueriesIssued)
	}
	if res.TestDuration < settings.MinDuration {
		t.Errorf("duration %v below minimum %v", res.TestDuration, settings.MinDuration)
	}
	if res.SingleStreamLatency <= 0 {
		t.Error("missing 90th-percentile latency")
	}
	if res.SingleStreamLatency < 100*time.Microsecond {
		t.Errorf("latency %v below SUT service time", res.SingleStreamLatency)
	}
	if !res.Valid {
		t.Errorf("run invalid: %v", res.ValidityMessages)
	}
	if res.MetricValue() <= 0 {
		t.Error("metric value should be positive")
	}
	if sut.flushed == 0 {
		t.Error("FlushQueries never called")
	}
	// Performance mode only loads the performance sample set.
	if res.PerformanceSamples != 32 {
		t.Errorf("loaded %d samples, want 32", res.PerformanceSamples)
	}
	if qsl.unloadCalls == 0 {
		t.Error("samples never unloaded")
	}
}

func TestSingleStreamAccuracyModeSweepsDataset(t *testing.T) {
	qsl := newFakeQSL(40, 8)
	sut := newFakeSUT(0, false)
	settings := fastSettings(SingleStream)
	settings.Mode = AccuracyMode
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 40 {
		t.Errorf("accuracy mode issued %d queries, want 40 (entire data set)", res.QueriesIssued)
	}
	seen := map[int]bool{}
	for _, idx := range sut.seenIndices() {
		seen[idx] = true
	}
	if len(seen) != 40 {
		t.Errorf("accuracy mode touched %d distinct samples, want 40", len(seen))
	}
	if len(res.AccuracyLog) != 40 {
		t.Errorf("accuracy log has %d entries, want 40", len(res.AccuracyLog))
	}
	// In accuracy mode the whole data set is loaded.
	if res.PerformanceSamples != 40 {
		t.Errorf("loaded %d samples, want 40", res.PerformanceSamples)
	}
	if !res.Valid {
		t.Errorf("accuracy run invalid: %v", res.ValidityMessages)
	}
}

func TestServerScenarioMeetsLatencyBound(t *testing.T) {
	qsl := newFakeQSL(64, 64)
	sut := newFakeSUT(0, true)
	settings := fastSettings(Server)
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerScheduledQPS != settings.ServerTargetQPS {
		t.Errorf("scheduled QPS = %v", res.ServerScheduledQPS)
	}
	if res.ServerAchievedQPS <= 0 {
		t.Error("achieved QPS should be positive")
	}
	if res.LatencyBoundViolations > 0.01 {
		t.Errorf("violations = %v with an instant SUT", res.LatencyBoundViolations)
	}
	if !res.Valid {
		t.Errorf("run invalid: %v", res.ValidityMessages)
	}
}

// TestServerScheduleDeterministic: two accuracy-mode Server runs with one
// ScheduleSeed record identical Query.Scheduled offsets, and those offsets
// are exactly the cumulative gaps of a Poisson process at ServerTargetQPS
// seeded by ScheduleSeed — the whole arrival schedule is a pure function of
// the seed and the rate.
func TestServerScheduleDeterministic(t *testing.T) {
	const seed = 11
	settings := fastSettings(Server)
	settings.Mode = AccuracyMode
	settings.ScheduleSeed = seed
	runs := make([][]time.Duration, 2)
	for i := range runs {
		sut := newFakeSUT(0, true)
		if _, err := StartTest(sut, newFakeQSL(40, 8), settings); err != nil {
			t.Fatal(err)
		}
		sut.mu.Lock()
		for _, q := range sut.queries {
			runs[i] = append(runs[i], q.Scheduled)
		}
		sut.mu.Unlock()
	}
	if len(runs[0]) != 40 || len(runs[1]) != 40 {
		t.Fatalf("accuracy runs issued %d and %d queries, want 40 each", len(runs[0]), len(runs[1]))
	}
	process, err := stats.NewPoissonProcess(stats.NewRNG(seed), settings.ServerTargetQPS)
	if err != nil {
		t.Fatal(err)
	}
	var want time.Duration
	for j := range runs[0] {
		want += process.NextGap()
		if runs[0][j] != runs[1][j] {
			t.Fatalf("same seed diverged at arrival %d: %v vs %v", j, runs[0][j], runs[1][j])
		}
		if runs[0][j] != want {
			t.Fatalf("arrival %d scheduled at %v, want cumulative Poisson gap %v", j, runs[0][j], want)
		}
	}
}

func TestServerScenarioDetectsOverload(t *testing.T) {
	qsl := newFakeQSL(64, 64)
	// Service time far above the latency bound: every query violates it.
	sut := newFakeSUT(5*time.Millisecond, true)
	settings := fastSettings(Server)
	settings.ServerTargetLatency = 500 * time.Microsecond
	settings.MinQueryCount = 40
	settings.ServerTargetQPS = 2000
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyBoundViolations < 0.5 {
		t.Errorf("expected most queries over bound, got %v", res.LatencyBoundViolations)
	}
	if res.Valid {
		t.Error("overloaded server run should be invalid")
	}
	if len(res.ValidityMessages) == 0 {
		t.Error("invalid run must explain why")
	}
}

func TestMultiStreamScenario(t *testing.T) {
	qsl := newFakeQSL(64, 64)
	// Synchronous completion keeps the happy path free of scheduler-induced
	// timing noise; the slow-SUT test below covers asynchronous completion.
	sut := newFakeSUT(0, false)
	settings := fastSettings(MultiStream)
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued < settings.MinQueryCount {
		t.Errorf("issued %d queries, want >= %d", res.QueriesIssued, settings.MinQueryCount)
	}
	if res.SamplesIssued != res.QueriesIssued*settings.MultiStreamSamplesPerQuery {
		t.Errorf("samples issued = %d, want %d per query", res.SamplesIssued, settings.MultiStreamSamplesPerQuery)
	}
	if !res.Valid {
		t.Errorf("run invalid: %v", res.ValidityMessages)
	}
	if res.MultiStreamStreams != settings.MultiStreamSamplesPerQuery {
		t.Errorf("streams = %d, want %d", res.MultiStreamStreams, settings.MultiStreamSamplesPerQuery)
	}
}

func TestMultiStreamSkipsIntervalsWhenSlow(t *testing.T) {
	qsl := newFakeQSL(64, 64)
	// Service time spans several arrival intervals, so most queries cause
	// skipped intervals and the run must be declared invalid (too many
	// skipped queries) with zero sustained streams.
	sut := newFakeSUT(8*time.Millisecond, true)
	settings := fastSettings(MultiStream)
	settings.MultiStreamArrivalInterval = time.Millisecond
	settings.MinQueryCount = 10
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedIntervals == 0 {
		t.Error("expected skipped intervals with a slow SUT")
	}
	if res.Valid {
		t.Error("run with pervasive skipping should be invalid")
	}
	if res.MultiStreamStreams != 0 {
		t.Errorf("invalid multistream run must report 0 streams, got %d", res.MultiStreamStreams)
	}
}

func TestOfflineScenario(t *testing.T) {
	qsl := newFakeQSL(128, 64)
	sut := newFakeSUT(0, false)
	settings := fastSettings(Offline)
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 1 {
		t.Errorf("offline issued %d queries, want 1", res.QueriesIssued)
	}
	if res.SamplesIssued != settings.MinSampleCount {
		t.Errorf("offline issued %d samples, want %d", res.SamplesIssued, settings.MinSampleCount)
	}
	if res.OfflineSamplesPerSec <= 0 {
		t.Error("offline throughput missing")
	}
	if !res.Valid {
		t.Errorf("run invalid: %v", res.ValidityMessages)
	}
	if sut.queryCount() != 1 {
		t.Errorf("SUT saw %d queries", sut.queryCount())
	}
}

func TestOfflineExpectedQPSScalesSamples(t *testing.T) {
	qsl := newFakeQSL(128, 64)
	sut := newFakeSUT(0, false)
	settings := fastSettings(Offline)
	settings.MinDuration = 100 * time.Millisecond
	settings.OfflineExpectedQPS = 100000 // 100k samples/s * 0.1s = 10k samples
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesIssued < 10000 {
		t.Errorf("offline issued %d samples, want >= 10000 from expected-QPS scaling", res.SamplesIssued)
	}
}

func TestOfflineShortRunIsInvalid(t *testing.T) {
	qsl := newFakeQSL(128, 64)
	sut := newFakeSUT(0, false)
	settings := fastSettings(Offline)
	settings.MinDuration = time.Hour // impossible to satisfy with 512 instant samples
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Error("offline run far below MinDuration must be invalid")
	}
}

func TestOfflineAccuracyModeCoversDataset(t *testing.T) {
	qsl := newFakeQSL(96, 16)
	sut := newFakeSUT(0, false)
	settings := fastSettings(Offline)
	settings.Mode = AccuracyMode
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesIssued != 96 {
		t.Errorf("accuracy offline issued %d samples, want 96", res.SamplesIssued)
	}
	if len(res.AccuracyLog) != 96 {
		t.Errorf("accuracy log has %d entries", len(res.AccuracyLog))
	}
}

func TestAccuracySinkStreamsInsteadOfAccumulating(t *testing.T) {
	qsl := newFakeQSL(96, 16)
	sut := newFakeSUT(0, false)
	settings := fastSettings(Offline)
	settings.Mode = AccuracyMode
	seen := make(map[int]int)
	entries := 0
	settings.AccuracySink = func(e AccuracyEntry) {
		seen[e.SampleIndex]++
		entries++
	}
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AccuracyLog) != 0 {
		t.Errorf("sink set but %d entries accumulated in AccuracyLog", len(res.AccuracyLog))
	}
	if entries != 96 || len(seen) != 96 {
		t.Errorf("sink saw %d entries over %d distinct samples, want 96/96", entries, len(seen))
	}
}

func TestAccuracyLogSamplingInPerformanceMode(t *testing.T) {
	qsl := newFakeQSL(64, 64)
	sut := newFakeSUT(0, false)
	settings := fastSettings(SingleStream)
	settings.MinQueryCount = 400
	settings.AccuracyLogSamplingRate = 0.25
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(res.AccuracyLog)) / float64(res.QueriesIssued)
	if frac < 0.1 || frac > 0.45 {
		t.Errorf("sampled accuracy-log fraction = %v, want ~0.25", frac)
	}

	settings.AccuracyLogSamplingRate = 0
	res2, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.AccuracyLog) != 0 {
		t.Errorf("logging disabled but %d entries recorded", len(res2.AccuracyLog))
	}
}

func TestSampleIndexPolicies(t *testing.T) {
	settings := fastSettings(SingleStream)
	settings.MinQueryCount = 30
	settings.MinDuration = 0

	// DuplicateSingle: every query uses the same index.
	sutDup := newFakeSUT(0, false)
	if _, err := StartTest(sutDup, newFakeQSL(64, 64), withPolicy(settings, DuplicateSingle)); err != nil {
		t.Fatal(err)
	}
	for _, idx := range sutDup.seenIndices() {
		if idx != 0 {
			t.Fatalf("DuplicateSingle issued index %d", idx)
		}
	}

	// UniqueSweep: the first len(loaded) queries cover distinct indices.
	sutUnique := newFakeSUT(0, false)
	if _, err := StartTest(sutUnique, newFakeQSL(64, 64), withPolicy(settings, UniqueSweep)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	indices := sutUnique.seenIndices()
	for i := 0; i < 30; i++ {
		if seen[indices[i]] {
			t.Fatalf("UniqueSweep repeated index %d within the first sweep", indices[i])
		}
		seen[indices[i]] = true
	}

	// RandomWithReplacement is deterministic per seed.
	sutA := newFakeSUT(0, false)
	sutB := newFakeSUT(0, false)
	if _, err := StartTest(sutA, newFakeQSL(64, 64), settings); err != nil {
		t.Fatal(err)
	}
	if _, err := StartTest(sutB, newFakeQSL(64, 64), settings); err != nil {
		t.Fatal(err)
	}
	ia, ib := sutA.seenIndices(), sutB.seenIndices()
	if len(ia) != len(ib) {
		t.Fatalf("different query counts: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("same seed produced different traffic at query %d", i)
		}
	}
	// A different seed produces different traffic.
	sutC := newFakeSUT(0, false)
	alt := settings
	alt.QuerySeed = 12345
	if _, err := StartTest(sutC, newFakeQSL(64, 64), alt); err != nil {
		t.Fatal(err)
	}
	ic := sutC.seenIndices()
	same := 0
	for i := range ia {
		if i < len(ic) && ia[i] == ic[i] {
			same++
		}
	}
	if same == len(ia) {
		t.Error("alternate seed produced identical traffic")
	}
}

func withPolicy(ts TestSettings, p SampleIndexPolicy) TestSettings {
	ts.SampleIndexPolicy = p
	return ts
}

func TestQueryCompletePartialAndDuplicate(t *testing.T) {
	q := &Query{ID: 1, Samples: []QuerySample{{ID: 10, Index: 0}, {ID: 11, Index: 1}}}
	var completed [][]Response
	q.complete = func(_ *Query, responses []Response) {
		completed = append(completed, responses)
	}
	q.Complete([]Response{{SampleID: 10}})
	if len(completed) != 0 {
		t.Fatal("query completed before all samples responded")
	}
	// Duplicate response for sample 10 must not count as the second sample.
	q.Complete([]Response{{SampleID: 10}})
	if len(completed) != 0 {
		t.Fatal("duplicate response completed the query")
	}
	q.Complete([]Response{{SampleID: 11}})
	if len(completed) != 1 {
		t.Fatalf("query did not complete after all samples responded")
	}
	if len(completed[0]) != 2 {
		t.Fatalf("completion saw %d responses, want 2", len(completed[0]))
	}
	// Further calls are ignored.
	q.Complete([]Response{{SampleID: 11}})
	if len(completed) != 1 {
		t.Fatal("query completed twice")
	}
}

func TestMinDurationSatisfiedIsNotFlaggedShort(t *testing.T) {
	// Regression test: the reported TestDuration must cover the point at
	// which the generator observed MinDuration being met, even if the last
	// query completed a hair earlier — otherwise runs are spuriously flagged
	// a few microseconds short of the minimum.
	qsl := newFakeQSL(64, 64)
	sut := newFakeSUT(0, false)
	settings := fastSettings(SingleStream)
	settings.MinQueryCount = 1
	settings.MinDuration = 50 * time.Millisecond
	for i := 0; i < 3; i++ {
		res, err := StartTest(sut, qsl, settings)
		if err != nil {
			t.Fatal(err)
		}
		if res.TestDuration < settings.MinDuration {
			t.Fatalf("reported duration %v below the minimum the generator waited for", res.TestDuration)
		}
		if !res.Valid {
			t.Fatalf("run invalid: %v", res.ValidityMessages)
		}
	}
}

func TestMaxQueryCountCapsRun(t *testing.T) {
	qsl := newFakeQSL(64, 64)
	sut := newFakeSUT(0, false)
	settings := fastSettings(SingleStream)
	settings.MinQueryCount = 10
	settings.MaxQueryCount = 10
	settings.MinDuration = time.Hour // would run forever without the cap
	res, err := StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 10 {
		t.Errorf("issued %d queries, want exactly 10", res.QueriesIssued)
	}
	// The run is too short for the 1-hour minimum duration, so it must be
	// flagged invalid rather than silently accepted.
	if res.Valid {
		t.Error("run shorter than MinDuration must be invalid")
	}
}
