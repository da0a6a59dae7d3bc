package backend

import (
	"fmt"
	"sync"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/payload"
	"mlperf/internal/simhw"
	"mlperf/internal/stats"
)

// SimulatedConfig configures a Simulated backend.
type SimulatedConfig struct {
	// Platform and Workload define the service-time model.
	Platform simhw.Platform
	Workload simhw.Workload
	// TimeScale divides every service time so wall-clock runs of slow
	// platforms stay practical (e.g. 100 makes a 50 ms inference take 0.5 ms).
	// Zero or one means real time.
	TimeScale float64
	// Seed drives the latency jitter.
	Seed uint64
	// Oracle, when set, produces the response payload for a sample index so
	// accuracy mode remains meaningful; otherwise an empty payload is sent.
	Oracle func(sampleIndex int) ([]byte, error)
}

// Simulated is a loadgen.SUT backed by a simhw performance model rather than
// real computation: it sleeps the modelled service time and responds.
type Simulated struct {
	cfg   SimulatedConfig
	units chan struct{}
	mu    sync.Mutex
	rng   *stats.RNG
	errs  errorLog
	wg    sync.WaitGroup
}

// NewSimulated validates the configuration and returns the backend.
func NewSimulated(cfg SimulatedConfig) (*Simulated, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("backend: TimeScale must be non-negative, got %v", cfg.TimeScale)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	return &Simulated{
		cfg:   cfg,
		units: make(chan struct{}, cfg.Platform.Parallelism),
		rng:   stats.NewRNG(cfg.Seed),
	}, nil
}

// Name implements loadgen.SUT.
func (s *Simulated) Name() string {
	return fmt.Sprintf("simulated/%s/%s", s.cfg.Platform.Name, s.cfg.Workload.Name)
}

// Platform returns the modelled platform.
func (s *Simulated) Platform() simhw.Platform { return s.cfg.Platform }

// IssueQuery implements loadgen.SUT: the whole query executes as one batch on
// the next free execution unit after the modelled service time elapses.
func (s *Simulated) IssueQuery(q *loadgen.Query) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.units <- struct{}{}
		defer func() { <-s.units }()

		batch := len(q.Samples)
		s.mu.Lock()
		base, err := s.cfg.Platform.ServiceTime(s.cfg.Workload, batch)
		noise := 1.0
		if err == nil {
			if s.cfg.Platform.Jitter > 0 {
				noise += s.cfg.Platform.Jitter * s.rng.NormFloat64()
			}
			if s.cfg.Workload.Variability > 0 {
				noise += s.cfg.Workload.Variability * s.rng.NormFloat64()
			}
			if noise < 0.05 {
				noise = 0.05
			}
		}
		s.mu.Unlock()
		if err != nil {
			s.errs.add(err)
			q.Complete(emptyResponses(q))
			return
		}
		service := time.Duration(float64(base) * noise / s.cfg.TimeScale)
		time.Sleep(service)

		responses := make([]loadgen.Response, len(q.Samples))
		for i, smp := range q.Samples {
			var data []byte
			if s.cfg.Oracle != nil {
				d, oerr := s.cfg.Oracle(smp.Index)
				if oerr != nil {
					s.errs.add(oerr)
				} else {
					data = d
				}
			}
			if data == nil {
				data = payload.AppendClass(nil, smp.Index)
			}
			responses[i] = loadgen.Response{SampleID: smp.ID, Data: data}
		}
		q.Complete(responses)
	}()
}

func emptyResponses(q *loadgen.Query) []loadgen.Response {
	out := make([]loadgen.Response, len(q.Samples))
	for i, smp := range q.Samples {
		out[i] = loadgen.Response{SampleID: smp.ID}
	}
	return out
}

// FlushQueries implements loadgen.SUT.
func (s *Simulated) FlushQueries() {}

// Wait blocks until all in-flight simulated work finishes.
func (s *Simulated) Wait() { s.wg.Wait() }

// Errors returns modelling errors observed during the run.
func (s *Simulated) Errors() []error { return s.errs.all() }
