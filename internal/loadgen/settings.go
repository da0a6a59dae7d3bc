package loadgen

import (
	"fmt"
	"time"
)

// SampleIndexPolicy selects how performance-mode queries pick sample indices
// from the loaded performance set. The default, RandomWithReplacement, is
// what the benchmark uses; the other policies exist for the compliance/audit
// tests of Section V-B (on-the-fly caching detection issues queries with
// unique and then duplicate indices and compares performance).
type SampleIndexPolicy int

const (
	// RandomWithReplacement picks each sample uniformly at random (default).
	RandomWithReplacement SampleIndexPolicy = iota
	// UniqueSweep cycles through the loaded samples without repetition until
	// they are exhausted, then wraps.
	UniqueSweep
	// DuplicateSingle issues the same sample index for every query.
	DuplicateSingle
)

// String returns the policy's name.
func (p SampleIndexPolicy) String() string {
	switch p {
	case RandomWithReplacement:
		return "RandomWithReplacement"
	case UniqueSweep:
		return "UniqueSweep"
	case DuplicateSingle:
		return "DuplicateSingle"
	default:
		return fmt.Sprintf("SampleIndexPolicy(%d)", int(p))
	}
}

// TestSettings controls a LoadGen run. The zero value is not valid; use
// DefaultSettings for a scenario-appropriate starting point and override as
// needed.
type TestSettings struct {
	Scenario Scenario
	Mode     Mode

	// MinQueryCount is the minimum number of queries the run must issue
	// (Table V: 1,024 for single-stream, 270K/90K for server and multistream,
	// 1 for offline).
	MinQueryCount int
	// MaxQueryCount, when positive, caps the number of issued queries. It is
	// used to keep accuracy runs bounded and by unit tests; production
	// performance runs leave it at zero (unbounded).
	MaxQueryCount int
	// MinDuration is the minimum wall-clock duration of the timed portion
	// (60 seconds in the benchmark; shorter in tests).
	MinDuration time.Duration

	// MinSampleCount is the minimum number of samples the offline scenario's
	// single query must contain (24,576 in the benchmark).
	MinSampleCount int
	// OfflineExpectedQPS, when positive, scales the offline query so it holds
	// enough samples to keep the SUT busy for MinDuration
	// (samples = max(MinSampleCount, OfflineExpectedQPS * MinDuration)), the
	// same mechanism submitters use to satisfy the 60-second minimum run time.
	OfflineExpectedQPS float64

	// ServerTargetQPS is the Poisson arrival rate for the server scenario,
	// fixed for the whole run; ScheduleSeed seeds the arrival gaps.
	ServerTargetQPS float64
	// ServerTargetLatency is the per-query latency bound in the server
	// scenario (Table III).
	ServerTargetLatency time.Duration
	// ServerLatencyPercentile is the percentile that must meet the bound
	// (0.99 for vision tasks, 0.97 for translation).
	ServerLatencyPercentile float64

	// SwarmSessions is the number of concurrent simulated client sessions the
	// Swarm scenario runs. Each session issues single-sample queries on its
	// own deterministic Poisson clock.
	SwarmSessions int
	// SwarmSessionQPS is each session's individual Poisson arrival rate; the
	// aggregate offered load is SwarmSessions * SwarmSessionQPS.
	SwarmSessionQPS float64
	// SwarmSessionLifetime is the mean session lifetime. A session whose
	// (exponentially distributed) lifetime expires reconnects: it counts one
	// churn event and continues as a fresh incarnation with a fresh,
	// deterministic schedule stream. Zero disables churn (sessions live for
	// the whole run).
	SwarmSessionLifetime time.Duration
	// SwarmClasses partitions the sessions into traffic classes, each with
	// its own latency target; sessions are assigned to classes by weight,
	// deterministically under ScheduleSeed. Empty means one implicit class
	// ("default") with the ServerTargetLatency/ServerLatencyPercentile bound.
	SwarmClasses []SwarmClass

	// MultiStreamSamplesPerQuery is N, the number of concurrent streams.
	MultiStreamSamplesPerQuery int
	// MultiStreamArrivalInterval is the fixed query arrival period, which also
	// acts as the latency bound (Table III).
	MultiStreamArrivalInterval time.Duration
	// MultiStreamMaxSkipFraction is the largest fraction of queries that may
	// produce one or more skipped intervals (0.01 in the benchmark).
	MultiStreamMaxSkipFraction float64

	// SingleStreamTargetPercentile is the reported latency percentile for the
	// single-stream scenario (0.90 in the benchmark).
	SingleStreamTargetPercentile float64

	// AccuracyLogSamplingRate is the probability that a performance-mode
	// response is logged for the accuracy-verification audit (0 disables).
	AccuracyLogSamplingRate float64

	// AccuracySink, when non-nil, receives every entry that would otherwise
	// accumulate in Result.AccuracyLog, as it is logged. The log stays empty,
	// bounding a full-dataset accuracy sweep's memory to the sink's own state
	// (see accuracy.StreamChecker). Entries arrive serialized (never two
	// calls at once) but from SUT completion goroutines; the entry's Data
	// slice is only valid for the duration of the call.
	AccuracySink func(AccuracyEntry)

	// SampleIndexPolicy selects the sample-index generation strategy.
	SampleIndexPolicy SampleIndexPolicy

	// QuerySeed seeds query sample selection; ScheduleSeed seeds the arrival
	// process; AccuracyLogSeed seeds the response-sampling choice. The
	// benchmark fixes official seeds per round and the alternate-random-seed
	// audit replaces them.
	QuerySeed       uint64
	ScheduleSeed    uint64
	AccuracyLogSeed uint64
}

// SwarmClass is one traffic class of the Swarm scenario: a named slice of
// the session population with its own latency target. Weights are relative
// (they need not sum to 1).
type SwarmClass struct {
	// Name labels the class in results and the audit ("interactive",
	// "batchy", ...).
	Name string
	// Weight is the class's relative share of the session population.
	Weight float64
	// TargetLatency is the per-query latency bound for the class's sessions.
	TargetLatency time.Duration
	// TargetPercentile is the fraction of the class's queries that must meet
	// TargetLatency for the run to be valid.
	TargetPercentile float64
}

// swarmClasses returns the run's effective class list: the configured
// classes, or the implicit single class derived from the Server-scenario
// bound when none are set.
func (ts TestSettings) swarmClasses() []SwarmClass {
	if len(ts.SwarmClasses) > 0 {
		return ts.SwarmClasses
	}
	return []SwarmClass{{
		Name:             "default",
		Weight:           1,
		TargetLatency:    ts.ServerTargetLatency,
		TargetPercentile: ts.ServerLatencyPercentile,
	}}
}

// Official default seeds for the v0.5 round. The audit suite swaps these for
// alternates to detect seed-dependent optimizations.
const (
	DefaultQuerySeed       = 0x2b7e151628aed2a6
	DefaultScheduleSeed    = 0x093c467e37db0c7a
	DefaultAccuracyLogSeed = 0x3243f6a8885a308d
)

// DefaultSettings returns the benchmark's production settings for a scenario
// (Table II, Table IV and Table V defaults). Latency bounds and rates are
// task-specific and must still be set by the caller for server and
// multistream.
func DefaultSettings(s Scenario) TestSettings {
	ts := TestSettings{
		Scenario:                     s,
		Mode:                         PerformanceMode,
		MinDuration:                  60 * time.Second,
		SingleStreamTargetPercentile: 0.90,
		ServerLatencyPercentile:      0.99,
		MultiStreamMaxSkipFraction:   0.01,
		SampleIndexPolicy:            RandomWithReplacement,
		QuerySeed:                    DefaultQuerySeed,
		ScheduleSeed:                 DefaultScheduleSeed,
		AccuracyLogSeed:              DefaultAccuracyLogSeed,
	}
	switch s {
	case SingleStream:
		ts.MinQueryCount = 1024
	case MultiStream:
		ts.MinQueryCount = 270336
		ts.MultiStreamSamplesPerQuery = 1
		ts.MultiStreamArrivalInterval = 50 * time.Millisecond
	case Server:
		ts.MinQueryCount = 270336
		ts.ServerTargetQPS = 100
		ts.ServerTargetLatency = 15 * time.Millisecond
	case Offline:
		ts.MinQueryCount = 1
		ts.MinSampleCount = 24576
	case Swarm:
		// Same aggregate query floor and default bound as Server, offered as
		// 10k sessions of 0.01 QPS each. Sessions churn on a 30-second mean
		// lifetime so a production run exercises reconnects by default.
		ts.MinQueryCount = 270336
		ts.SwarmSessions = 10000
		ts.SwarmSessionQPS = 0.01
		ts.SwarmSessionLifetime = 30 * time.Second
		ts.ServerTargetQPS = 100
		ts.ServerTargetLatency = 15 * time.Millisecond
	}
	return ts
}

// Validate reports configuration errors before a run starts.
func (ts TestSettings) Validate() error {
	switch ts.Scenario {
	case SingleStream, MultiStream, Server, Offline, Swarm:
	default:
		return fmt.Errorf("loadgen: unknown scenario %v", ts.Scenario)
	}
	switch ts.Mode {
	case PerformanceMode, AccuracyMode:
	default:
		return fmt.Errorf("loadgen: unknown mode %v", ts.Mode)
	}
	if ts.MinQueryCount <= 0 {
		return fmt.Errorf("loadgen: MinQueryCount must be positive, got %d", ts.MinQueryCount)
	}
	if ts.MaxQueryCount > 0 && ts.MaxQueryCount < ts.MinQueryCount && ts.Mode == PerformanceMode {
		return fmt.Errorf("loadgen: MaxQueryCount %d below MinQueryCount %d", ts.MaxQueryCount, ts.MinQueryCount)
	}
	if ts.MinDuration < 0 {
		return fmt.Errorf("loadgen: MinDuration must be non-negative, got %v", ts.MinDuration)
	}
	if ts.SingleStreamTargetPercentile <= 0 || ts.SingleStreamTargetPercentile >= 1 {
		return fmt.Errorf("loadgen: SingleStreamTargetPercentile %v outside (0,1)", ts.SingleStreamTargetPercentile)
	}
	switch ts.Scenario {
	case Server:
		if ts.ServerTargetQPS <= 0 {
			return fmt.Errorf("loadgen: ServerTargetQPS must be positive, got %v", ts.ServerTargetQPS)
		}
		if ts.ServerTargetLatency <= 0 {
			return fmt.Errorf("loadgen: ServerTargetLatency must be positive, got %v", ts.ServerTargetLatency)
		}
		if ts.ServerLatencyPercentile <= 0 || ts.ServerLatencyPercentile >= 1 {
			return fmt.Errorf("loadgen: ServerLatencyPercentile %v outside (0,1)", ts.ServerLatencyPercentile)
		}
	case MultiStream:
		if ts.MultiStreamSamplesPerQuery <= 0 {
			return fmt.Errorf("loadgen: MultiStreamSamplesPerQuery must be positive, got %d", ts.MultiStreamSamplesPerQuery)
		}
		if ts.MultiStreamArrivalInterval <= 0 {
			return fmt.Errorf("loadgen: MultiStreamArrivalInterval must be positive, got %v", ts.MultiStreamArrivalInterval)
		}
		if ts.MultiStreamMaxSkipFraction < 0 || ts.MultiStreamMaxSkipFraction >= 1 {
			return fmt.Errorf("loadgen: MultiStreamMaxSkipFraction %v outside [0,1)", ts.MultiStreamMaxSkipFraction)
		}
	case Offline:
		if ts.MinSampleCount <= 0 {
			return fmt.Errorf("loadgen: MinSampleCount must be positive for the offline scenario, got %d", ts.MinSampleCount)
		}
	case Swarm:
		if ts.SwarmSessions <= 0 {
			return fmt.Errorf("loadgen: SwarmSessions must be positive, got %d", ts.SwarmSessions)
		}
		if ts.SwarmSessionQPS <= 0 {
			return fmt.Errorf("loadgen: SwarmSessionQPS must be positive, got %v", ts.SwarmSessionQPS)
		}
		if ts.SwarmSessionLifetime < 0 {
			return fmt.Errorf("loadgen: SwarmSessionLifetime must be non-negative, got %v", ts.SwarmSessionLifetime)
		}
		for i, c := range ts.swarmClasses() {
			if c.Weight <= 0 {
				return fmt.Errorf("loadgen: swarm class %d (%q) has non-positive weight %v", i, c.Name, c.Weight)
			}
			if c.TargetLatency <= 0 {
				return fmt.Errorf("loadgen: swarm class %d (%q) has non-positive target latency %v", i, c.Name, c.TargetLatency)
			}
			if c.TargetPercentile <= 0 || c.TargetPercentile >= 1 {
				return fmt.Errorf("loadgen: swarm class %d (%q) target percentile %v outside (0,1)", i, c.Name, c.TargetPercentile)
			}
		}
	}
	if ts.AccuracyLogSamplingRate < 0 || ts.AccuracyLogSamplingRate > 1 {
		return fmt.Errorf("loadgen: AccuracyLogSamplingRate %v outside [0,1]", ts.AccuracyLogSamplingRate)
	}
	return nil
}
