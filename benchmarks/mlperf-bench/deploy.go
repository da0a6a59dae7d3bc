package main

import (
	"fmt"
	"runtime"
	"time"

	"mlperf/internal/backend"
	"mlperf/internal/core"
	"mlperf/internal/harness"
	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
)

// buildSeed fixes model weights, data set and calibration. -seed only drives
// the query stream (which samples, in what order, arriving when), so every
// seed measures the same program on the same data with different inputs.
const buildSeed = 42

// workload is one benchmark workload: a scenario on a task behind one SUT
// deployment.
type workload struct {
	name     string
	why      string
	task     core.Task
	scenario loadgen.Scenario
	// wire puts a loopback serve.Server + backend.Remote between the LoadGen
	// and the engine; otherwise the SUT is the in-process backend.Native.
	wire bool
	// offlineRate sizes the Offline query that makes one repetition: samples
	// per second of runConfig.repLength, about what the sizing host serves.
	// On server-wire it sizes the bursts that measure raw capacity.
	offlineRate int
	// warmup is the fixed amount of work (samples or queries) the discarded
	// warm-up at the end of every set-up runs. It is a count, not a duration,
	// so set-up time follows the program's speed.
	warmup int
}

// workloads lists the benchmark's workloads; the reason each exists is in
// its why (and at more length in benchmarks/README.md).
var workloads = []workload{
	{
		name: "offline-classify", task: core.ImageClassificationLight, scenario: loadgen.Offline,
		offlineRate: 28000, warmup: 4096,
		why: "Offline MobileNet-mini in process: batched forward on the lightest model, where a quarter of a sample's time is outside Predict; no wire",
	},
	{
		name: "singlestream-resnet", task: core.ImageClassificationHeavy, scenario: loadgen.SingleStream,
		warmup: 128,
		why:    "SingleStream ResNet50-mini in process: batch-1 latency, ~99% GEMM/im2col, no depthwise, LoadGen and backend do almost nothing",
	},
	{
		name: "server-wire", task: core.ImageClassificationLight, scenario: loadgen.Server, wire: true,
		offlineRate: 27000, warmup: 400,
		why: "Server MobileNet-mini over loopback serve+Remote: Poisson arrivals at a fixed rate, then bursts; admission, batcher, codec and demux dominate a ~50us model",
	},
	{
		name: "offline-translate-wire", task: core.MachineTranslation, scenario: loadgen.Offline, wire: true,
		offlineRate: 7000, warmup: 1024,
		why: "Offline GNMT-mini over the same wire: one burst with full batches and window backpressure, token payloads, LSTM matmul/matvec",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverFixedQPS is the Phase A offered rate of server-wire, about 70% of the
// seed's max valid QPS on the 2-core sizing host.
const serverFixedQPS = 4000

// deployment is one workload's running system under test.
type deployment struct {
	w   workload
	asm *harness.Assembly
	// sut is what the LoadGen drives: the Native, the Remote, or either of
	// them behind a tracedSUT.
	sut      loadgen.SUT
	observed interface {
		Wait()
		Errors() []error
	}
	loop *harness.LoopbackDeployment // nil in process
	tr   *tracer                     // nil untraced
	// workers is the inference parallelism of the deployment (Native workers
	// or serve workers); busy shares are taken against it.
	workers int
	// loadS is how long one LoadSamplesToRAM/Unload pair over the whole data
	// set took at set-up.
	loadS float64
	// seenErrors is how many of the SUT's accumulated errors earlier runs
	// have already been charged with, lostSeen the same for the Remote's
	// drop counters.
	seenErrors int
	lostSeen   int64
}

// deploy builds the workload's model and data (harness.BuildNative), puts the
// SUT in place — in process, or behind a loopback server and client — and,
// when tr is set, installs the benchmark's decorators around the engine, the
// sample store and the SUT. Worker and connection counts are all nproc.
func deploy(w workload, tr *tracer) (*deployment, error) {
	nproc := runtime.NumCPU()
	asm, err := harness.BuildNative(w.task, harness.BuildOptions{Seed: buildSeed, Workers: nproc})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.task, err)
	}
	d := &deployment{w: w, asm: asm, tr: tr, workers: nproc}

	all := make([]int, asm.QSL.TotalSampleCount())
	for i := range all {
		all[i] = i
	}
	loadStart := time.Now()
	if err := asm.QSL.LoadSamplesToRAM(all); err != nil {
		return nil, err
	}
	if err := asm.QSL.UnloadSamplesFromRAM(all); err != nil {
		return nil, err
	}
	d.loadS = time.Since(loadStart).Seconds()

	engine, store := asm.Engine, sampleStore(asm.QSL)
	if tr != nil {
		engine, store = &tracedEngine{inner: asm.Engine, tr: tr}, &tracedStore{inner: asm.QSL, tr: tr}
	}
	switch {
	case w.wire:
		loop, err := asm.ServeLoopback(harness.ServeOptions{
			Server: serve.Config{Engine: engine, Store: store, Workers: nproc},
			Client: backend.RemoteConfig{Conns: nproc},
		})
		if err != nil {
			return nil, fmt.Errorf("deploying %s on loopback: %w", w.name, err)
		}
		d.loop, d.sut, d.observed = loop, loop.Remote, loop.Remote
	case tr != nil:
		native, err := backend.NewNative(backend.NativeConfig{Engine: engine, Store: store, Workers: nproc})
		if err != nil {
			return nil, err
		}
		d.sut, d.observed = native, native
	default:
		native := asm.NativeBackend()
		d.sut, d.observed = native, native
	}
	if tr != nil {
		d.sut = &tracedSUT{inner: d.sut, tr: tr}
	}
	return d, nil
}

// Close tears the deployment down (a no-op in process).
func (d *deployment) Close() error {
	if d.loop != nil {
		return d.loop.Close()
	}
	return nil
}

// runResult is one LoadGen run with the failures it is charged with.
type runResult struct {
	*loadgen.Result
	attempted int
	failed    int
}

// run executes one LoadGen test against the deployment and counts failed
// operations: a sample that was dropped, rejected, expired or never
// completed, or — when the LoadGen saw none of those — any new SUT error.
func (d *deployment) run(ts loadgen.TestSettings) (runResult, error) {
	if d.tr != nil {
		d.tr.beginRun()
	}
	res, err := loadgen.StartTest(d.sut, d.asm.QSL, ts)
	if err != nil {
		return runResult{}, err
	}
	d.observed.Wait()
	out := runResult{Result: res, attempted: res.SamplesIssued}
	out.failed = res.ResponsesDropped + (res.SamplesIssued - res.SamplesCompleted)
	errs := d.observed.Errors()
	if fresh := len(errs) - d.seenErrors; fresh > 0 && out.failed == 0 {
		out.failed = fresh
	}
	d.seenErrors = len(errs)
	return out, nil
}

// settings returns the settings of one run of the scenario. rate is the
// Server scenario's offered QPS and samples the Offline query size; each is
// ignored by the other scenarios. Minimum query counts are 1 everywhere: the
// run length is the benchmark's, not Table V's.
func (d *deployment) settings(scenario loadgen.Scenario, seeds runSeeds, length time.Duration, rate float64, samples int) loadgen.TestSettings {
	ts := loadgen.DefaultSettings(scenario)
	ts.MinQueryCount = 1
	ts.MinDuration = length
	ts.QuerySeed, ts.ScheduleSeed = seeds.query, seeds.schedule
	switch scenario {
	case loadgen.Offline:
		ts.MinDuration = 0
		ts.MinSampleCount = samples
	case loadgen.Server:
		ts.ServerTargetQPS = rate
		ts.ServerTargetLatency = d.asm.Spec.ServerLatencyBound
		ts.ServerLatencyPercentile = d.asm.Spec.ServerLatencyPercentile
	}
	return ts
}

// runSeeds are the LoadGen seeds of one run.
type runSeeds struct{ query, schedule uint64 }

// seedsFor derives independent LoadGen seeds for run number n of a phase
// from the benchmark seed (splitmix64), so repetitions are independent
// samples of the same workload and the whole sequence is a function of -seed.
func seedsFor(seed uint64, phase, n int) runSeeds {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	base := mix(seed ^ mix(uint64(phase)<<32|uint64(n)))
	return runSeeds{query: mix(base ^ 1), schedule: mix(base ^ 2)}
}

// warm runs the workload's fixed-size discarded warm-up.
func (d *deployment) warm(seed uint64) error {
	ts := d.settings(d.w.scenario, seedsFor(seed, phaseWarmup, 0), 0, serverFixedQPS, d.w.warmup)
	if d.w.scenario != loadgen.Offline {
		ts.MinQueryCount, ts.MaxQueryCount = d.w.warmup, d.w.warmup
	}
	res, err := d.run(ts)
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("warm-up of %s failed %d of %d operations", d.w.name, res.failed, res.attempted)
	}
	return nil
}

// Phases number the seed streams.
const (
	phaseWarmup = iota
	phaseGate
	phaseTimed
	phaseBurst
	phaseSearch
	phaseTraced
	phaseIsolated
)
