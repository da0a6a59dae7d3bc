package audit

import (
	"sync"
	"testing"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/payload"
)

// auditQSL is a minimal in-memory query sample library.
type auditQSL struct {
	total int
}

func (q *auditQSL) Name() string                             { return "audit-qsl" }
func (q *auditQSL) TotalSampleCount() int                    { return q.total }
func (q *auditQSL) PerformanceSampleCount() int              { return q.total }
func (q *auditQSL) LoadSamplesToRAM(indices []int) error     { return nil }
func (q *auditQSL) UnloadSamplesFromRAM(indices []int) error { return nil }

// honestSUT answers every sample after a fixed service time with a
// deterministic payload derived from the sample index.
type honestSUT struct {
	latency time.Duration
}

func (s *honestSUT) Name() string { return "honest" }

func (s *honestSUT) IssueQuery(q *loadgen.Query) {
	go func() {
		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		responses := make([]loadgen.Response, len(q.Samples))
		for i, smp := range q.Samples {
			data := payload.AppendClass(nil, smp.Index%7)
			responses[i] = loadgen.Response{SampleID: smp.ID, Data: data}
		}
		q.Complete(responses)
	}()
}

func (s *honestSUT) FlushQueries() {}

// flakySUT returns different answers in performance mode than it logged in
// accuracy mode by keying its answer on an internal counter, which the
// accuracy-verification audit must catch.
type flakySUT struct {
	mu      sync.Mutex
	counter int
}

func (s *flakySUT) Name() string { return "flaky" }

func (s *flakySUT) IssueQuery(q *loadgen.Query) {
	s.mu.Lock()
	s.counter++
	c := s.counter
	s.mu.Unlock()
	responses := make([]loadgen.Response, len(q.Samples))
	for i, smp := range q.Samples {
		data := payload.AppendClass(nil, c%5)
		responses[i] = loadgen.Response{SampleID: smp.ID, Data: data}
	}
	q.Complete(responses)
}

func (s *flakySUT) FlushQueries() {}

// cachingSUT memoizes responses per sample index: repeated samples are served
// much faster, which the rules prohibit.
type cachingSUT struct {
	mu   sync.Mutex
	seen map[int]bool
	slow time.Duration
	fast time.Duration
}

func newCachingSUT() *cachingSUT {
	// The gap between the cached and uncached paths is deliberately large so
	// the test is insensitive to sleep granularity on slow CI machines.
	return &cachingSUT{seen: make(map[int]bool), slow: 5 * time.Millisecond, fast: 0}
}

func (s *cachingSUT) Name() string { return "caching" }

func (s *cachingSUT) IssueQuery(q *loadgen.Query) {
	go func() {
		for _, smp := range q.Samples {
			s.mu.Lock()
			cached := s.seen[smp.Index]
			s.seen[smp.Index] = true
			s.mu.Unlock()
			if cached {
				time.Sleep(s.fast)
			} else {
				time.Sleep(s.slow)
			}
			data := payload.AppendClass(nil, smp.Index%7)
			q.Complete([]loadgen.Response{{SampleID: smp.ID, Data: data}})
		}
	}()
}

func (s *cachingSUT) FlushQueries() {}

// seedTunedSUT is fast only while the incoming sample-index stream follows a
// memorized expected sequence (an optimization tuned to the official seed).
type seedTunedSUT struct {
	mu       sync.Mutex
	expected []int
	pos      int
}

func (s *seedTunedSUT) Name() string { return "seed-tuned" }

func (s *seedTunedSUT) IssueQuery(q *loadgen.Query) {
	go func() {
		for _, smp := range q.Samples {
			s.mu.Lock()
			onScript := s.pos < len(s.expected) && s.expected[s.pos] == smp.Index
			s.pos++
			s.mu.Unlock()
			if !onScript {
				time.Sleep(5 * time.Millisecond)
			}
			data := payload.AppendClass(nil, smp.Index%7)
			q.Complete([]loadgen.Response{{SampleID: smp.ID, Data: data}})
		}
	}()
}

func (s *seedTunedSUT) FlushQueries() {}

// recordingSUT captures the sample-index traffic so tests can build a
// seed-tuned cheater.
type recordingSUT struct {
	mu      sync.Mutex
	indices []int
}

func (s *recordingSUT) Name() string { return "recording" }

func (s *recordingSUT) IssueQuery(q *loadgen.Query) {
	responses := make([]loadgen.Response, len(q.Samples))
	s.mu.Lock()
	for i, smp := range q.Samples {
		s.indices = append(s.indices, smp.Index)
		data := payload.AppendClass(nil, smp.Index%7)
		responses[i] = loadgen.Response{SampleID: smp.ID, Data: data}
	}
	s.mu.Unlock()
	q.Complete(responses)
}

func (s *recordingSUT) FlushQueries() {}

func auditSettings() loadgen.TestSettings {
	ts := loadgen.DefaultSettings(loadgen.SingleStream)
	ts.MinQueryCount = 60
	ts.MinDuration = 0
	return ts
}

func TestSuiteValidation(t *testing.T) {
	qsl := &auditQSL{total: 32}
	if _, err := (Suite{QSL: qsl, Settings: auditSettings()}).AccuracyVerification(); err == nil {
		t.Error("nil SUT: expected error")
	}
	if _, err := (Suite{SUT: &honestSUT{}, Settings: auditSettings()}).AccuracyVerification(); err == nil {
		t.Error("nil QSL: expected error")
	}
	bad := auditSettings()
	bad.MinQueryCount = 0
	if _, err := (Suite{SUT: &honestSUT{}, QSL: qsl, Settings: bad}).AccuracyVerification(); err == nil {
		t.Error("invalid settings: expected error")
	}
}

func TestAccuracyVerificationPassesHonestSUT(t *testing.T) {
	s := Suite{SUT: &honestSUT{}, QSL: &auditQSL{total: 32}, Settings: auditSettings()}
	f, err := s.AccuracyVerification()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Pass {
		t.Errorf("honest SUT failed accuracy verification: %s", f.Detail)
	}
	if f.String() == "" {
		t.Error("empty finding string")
	}
}

func TestAccuracyVerificationCatchesInconsistentSUT(t *testing.T) {
	s := Suite{SUT: &flakySUT{}, QSL: &auditQSL{total: 32}, Settings: auditSettings()}
	f, err := s.AccuracyVerification()
	if err != nil {
		t.Fatal(err)
	}
	if f.Pass {
		t.Error("inconsistent SUT passed accuracy verification")
	}
}

func TestCachingDetection(t *testing.T) {
	honest := Suite{SUT: &honestSUT{latency: 2 * time.Millisecond}, QSL: &auditQSL{total: 32}, Settings: auditSettings()}
	f, err := honest.CachingDetection(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Pass {
		t.Errorf("honest SUT flagged for caching: %s", f.Detail)
	}

	caching := Suite{SUT: newCachingSUT(), QSL: &auditQSL{total: 32}, Settings: auditSettings()}
	f2, err := caching.CachingDetection(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Pass {
		t.Errorf("caching SUT not detected: %s", f2.Detail)
	}

	if _, err := honest.CachingDetection(0.9); err == nil {
		t.Error("threshold below 1: expected error")
	}
}

func TestAlternateSeed(t *testing.T) {
	settings := auditSettings()
	qsl := &auditQSL{total: 64}

	honest := Suite{SUT: &honestSUT{latency: 2 * time.Millisecond}, QSL: qsl, Settings: settings}
	f, err := honest.AlternateSeed([]uint64{123, 456}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Pass {
		t.Errorf("honest SUT failed alternate-seed audit: %s", f.Detail)
	}

	// Build a cheater tuned to the official traffic: record the official
	// sample-index stream, then answer fast only along that exact stream.
	recorder := &recordingSUT{}
	if _, err := loadgen.StartTest(recorder, qsl, settings); err != nil {
		t.Fatal(err)
	}
	cheater := &seedTunedSUT{expected: recorder.indices}
	tuned := Suite{SUT: cheater, QSL: qsl, Settings: settings}
	f2, err := tuned.AlternateSeed([]uint64{99991}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Pass {
		t.Errorf("seed-tuned SUT not detected: %s", f2.Detail)
	}

	if _, err := honest.AlternateSeed(nil, 0.5); err == nil {
		t.Error("no alternate seeds: expected error")
	}
	if _, err := honest.AlternateSeed([]uint64{1}, 0); err == nil {
		t.Error("zero tolerance: expected error")
	}
}

func TestRunAllAndAllPassed(t *testing.T) {
	s := Suite{SUT: &honestSUT{latency: 200 * time.Microsecond}, QSL: &auditQSL{total: 32}, Settings: auditSettings()}
	findings, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("expected 3 findings, got %d", len(findings))
	}
	if !AllPassed(findings) {
		for _, f := range findings {
			t.Log(f)
		}
		t.Error("honest SUT failed the audit battery")
	}
	if AllPassed(nil) {
		t.Error("empty findings must not count as passed")
	}
	if AllPassed([]Finding{{Pass: true}, {Pass: false}}) {
		t.Error("mixed findings must not count as passed")
	}
}
