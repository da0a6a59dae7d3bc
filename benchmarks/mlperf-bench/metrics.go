package main

import "fmt"

// metricDef is one metric the benchmark emits. BENCHMARK.json lists exactly
// these (a self-test compares the two).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics of an untraced run. Every workload reports every
// one; what each means on a workload is in benchmarks/README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.15},
	{"latency_p50_us", "us", "lower", 0.15},
	{"cpu_us_per_sample", "us", "lower", 0.2},
}

// perLayer are the metrics of a traced run, layer.metric. A metric whose
// layer a workload does not run reads 0 there.
var perLayer = []metricDef{
	{"loadgen.issue_ns_per_query", "ns", "lower", 0},
	{"loadgen.allocs_per_query", "count", "lower", 0},
	{"loadgen.latency_tail_us", "us", "lower", 0},
	{"loadgen.schedule_lag_p50_us", "us", "lower", 0},
	{"loadgen.schedule_lag_p99_us", "us", "lower", 0},
	{"dataset.get_ns", "ns", "lower", 0},
	{"dataset.get_calls", "count", "lower", 0},
	{"dataset.load_s", "s", "lower", 0},
	{"backend.native_query_p50_us", "us", "lower", 0},
	{"backend.native_overhead_p50_us", "us", "lower", 0},
	{"backend.native_predict_busy_share", "%", "higher", 0},
	{"backend.native_issue_block_p99_us", "us", "lower", 0},
	{"backend.remote_rtt_p50_us", "us", "lower", 0},
	{"backend.remote_rtt_p99_us", "us", "lower", 0},
	{"backend.remote_issue_block_p99_us", "us", "lower", 0},
	{"backend.remote_client_overhead_p50_us", "us", "lower", 0},
	{"backend.remote_rejected", "count", "lower", 0},
	{"backend.remote_expired", "count", "lower", 0},
	{"backend.remote_transport_drops", "count", "lower", 0},
	{"serve.max_valid_qps", "1/s", "higher", 0},
	{"serve.queue_p50_us", "us", "lower", 0},
	{"serve.queue_p99_us", "us", "lower", 0},
	{"serve.service_p50_us", "us", "lower", 0},
	{"serve.service_p99_us", "us", "lower", 0},
	{"serve.batch_mean", "count", "higher", 0},
	{"serve.admitted", "count", "higher", 0},
	{"serve.completed", "count", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"serve.engine_busy_share", "%", "higher", 0},
	{"serve.predict_calls", "count", "lower", 0},
	{"serve.null_rtt_p50_us", "us", "lower", 0},
	{"serve.null_offline_samples_per_s", "1/s", "higher", 0},
	{"payload.class_roundtrip_ns", "ns", "lower", 0},
	{"payload.tokens_roundtrip_ns", "ns", "lower", 0},
	{"payload.class_allocs", "count", "lower", 0},
	{"payload.tokens_allocs", "count", "lower", 0},
	{"model.mobilenet_b1_us", "us", "lower", 0},
	{"model.mobilenet_bN_us", "us", "lower", 0},
	{"model.resnet50_b1_us", "us", "lower", 0},
	{"model.resnet50_bN_us", "us", "lower", 0},
	{"model.gnmt_b1_us", "us", "lower", 0},
	{"model.gnmt_bN_us", "us", "lower", 0},
	{"model.mobilenet_bN_allocs", "count", "lower", 0},
	{"model.resnet50_b1_allocs", "count", "lower", 0},
	{"model.gnmt_bN_allocs", "count", "lower", 0},
	{"model.batch_mean", "count", "higher", 0},
	{"model.predict_p50_us", "us", "lower", 0},
	{"tensor.gemm_cache_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_stream_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_batched_gflops", "GFLOP/s", "higher", 0},
	{"tensor.depthwise_batched_gflops", "GFLOP/s", "higher", 0},
	{"tensor.dense_batched_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matvec_gflops", "GFLOP/s", "higher", 0},
	{"parallel.for_overhead_ns", "ns", "lower", 0},
	{"process.allocs_per_sample", "count", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_total_ms", "ms", "lower", 0},
	{"process.peak_rss_mib", "MiB", "lower", 0},
	{"bench.trace_overhead_share", "%", "lower", 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported metric with what it rests on.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better is the direction of improvement.
	Better string `json:"better"`
	// Repetitions are the per-repetition values the median was taken over,
	// Q1/Q3 their quartiles, Samples how many observations (queries, calls)
	// the figure summarises.
	Repetitions []float64 `json:"repetitions,omitempty"`
	Q1          float64   `json:"q1,omitempty"`
	Q3          float64   `json:"q3,omitempty"`
	Samples     int       `json:"samples,omitempty"`
	Description string    `json:"description,omitempty"`
}

type alsoValue struct {
	Name string `json:"name"`
	metricValue
}

// phaseReport counts one phase's operations.
type phaseReport struct {
	Name      string `json:"name"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	Detail    string `json:"detail,omitempty"`
}

// report is everything one run of one workload found; -out writes it.
type report struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// RepSeconds is the length of one repetition (an Offline repetition is
	// one query sized for it).
	RepSeconds float64                `json:"repetition_seconds"`
	Traced     bool                   `json:"traced"`
	Host       hostShape              `json:"host"`
	Correct    bool                   `json:"correct"`
	Phases     []phaseReport          `json:"phases"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Flags are conditions a reader must know before trusting the numbers,
	// e.g. generator_limited.
	// Also holds what the run measured besides its metrics.
	Also  []alsoValue `json:"also_measured,omitempty"`
	Flags []string    `json:"flags,omitempty"`
	// Repetitions is every timed repetition with the host probes around it;
	// the metrics rest on the kept ones. HostProbeFastestMs is the probe
	// reading they were judged against.
	Repetitions        []repetition  `json:"repetitions,omitempty"`
	HostProbeFastestMs float64       `json:"host_probe_fastest_ms,omitempty"`
	Search             []probe       `json:"capacity_search,omitempty"`
	SelfTime           []selfTimeRow `json:"self_time,omitempty"`
	SpansDropped       int64         `json:"spans_dropped,omitempty"`

	defs []metricDef
}

func newReport(w workload, cfg runConfig, traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds, RepSeconds: cfg.repLength.Seconds(),
		Traced: traced, Host: readHostShape(), Correct: true, Metrics: map[string]metricValue{}, defs: defs,
	}
}

// set records a metric of this run's kind. Naming a metric the registry does
// not hold, or with another unit, is a bug in the benchmark.
func (r *report) set(name string, value float64, unit, description string) {
	def, ok := findMetric(r.defs, name)
	if !ok || def.unit != unit {
		panic(fmt.Sprintf("benchmark bug: metric %q (%s) is not in this run's registry", name, unit))
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit, Better: def.better, Description: description}
}

// setMedian records the median of per-repetition values.
func (r *report) setMedian(name string, reps []float64, unit string, samples int, description string) {
	r.set(name, median(reps), unit, description)
	m := r.Metrics[name]
	m.Repetitions = reps
	m.Q1, m.Q3 = quartiles(reps)
	m.Samples = samples
	r.Metrics[name] = m
}

// alsoMedian records a figure an untraced run measures on the way but that is
// not one of its metrics: it is printed and written to -out, and is not in
// the result line.
func (r *report) alsoMedian(name string, reps []float64, unit string, samples int, description string) {
	q1, q3 := quartiles(reps)
	r.Also = append(r.Also, alsoValue{Name: name, metricValue: metricValue{Value: median(reps), Unit: unit, Repetitions: reps, Q1: q1, Q3: q3, Samples: samples, Description: description}})
}

func (r *report) addReps(reps repsResult) { r.Repetitions = append(r.Repetitions, reps.reps...) }

func (r *report) phase(name string, attempted, failed int, detail string) {
	r.Phases = append(r.Phases, phaseReport{Name: name, Attempted: attempted, Failed: failed, Detail: detail})
	if failed > 0 {
		r.Correct = false
	}
}

func (r *report) flag(name string) {
	for _, f := range r.Flags {
		if f == name {
			return
		}
	}
	r.Flags = append(r.Flags, name)
}

func (r *report) totals() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// fillAbsent gives every metric of the run's kind that was not measured —
// its layer is not on this workload's path — the value 0.
func (r *report) fillAbsent() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metricValue{Unit: d.unit, Better: d.better, Description: "layer not on this workload's path"}
		}
	}
}
