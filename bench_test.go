// Package mlperf holds the repository-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation section (each
// regenerates the corresponding result through the experiments package), plus
// microbenchmarks for the core components (LoadGen scenario drivers, native
// model inference, quantization and the virtual-time queue simulator).
//
// Run with:
//
//	go test -bench=. -benchmem
package mlperf

import (
	"fmt"
	"testing"
	"time"

	"mlperf/internal/backend"
	"mlperf/internal/capacity"
	"mlperf/internal/core"
	"mlperf/internal/dataset"
	"mlperf/internal/experiments"
	"mlperf/internal/harness"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/quantize"
	"mlperf/internal/serve"
	"mlperf/internal/simhw"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
	"mlperf/internal/trace"
)

// benchOptions keeps the experiment regeneration benchmarks fast while still
// exercising the full pipeline of each table/figure.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 2020, SearchQueries: 512, Figure6Systems: 4, DatasetSamples: 48}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table of the paper. ---

func BenchmarkTable1ModelZoo(b *testing.B)           { runExperiment(b, "table1") }
func BenchmarkTable2Scenarios(b *testing.B)          { runExperiment(b, "table2") }
func BenchmarkTable3LatencyConstraints(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4QueryRequirements(b *testing.B)  { runExperiment(b, "table4") }
func BenchmarkTable5QueryCounts(b *testing.B)        { runExperiment(b, "table5") }
func BenchmarkTable6Coverage(b *testing.B)           { runExperiment(b, "table6") }
func BenchmarkTable7Frameworks(b *testing.B)         { runExperiment(b, "table7") }

// --- One benchmark per figure of the evaluation section. ---

func BenchmarkFigure5TaskCoverage(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFigure6ServerVsOffline(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFigure7Architectures(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFigure8PerformanceRange(b *testing.B) { runExperiment(b, "fig8") }

// --- Audit and analysis sections. ---

func BenchmarkAuditSuite(b *testing.B)        { runExperiment(b, "audits") }
func BenchmarkModeledVsMeasured(b *testing.B) { runExperiment(b, "modeled-vs-measured") }

// --- LoadGen scenario drivers against an instant SUT (traffic-generation
// overhead, independent of any model). ---

type instantSUT struct{}

func (instantSUT) Name() string { return "instant" }
func (instantSUT) IssueQuery(q *loadgen.Query) {
	responses := make([]loadgen.Response, len(q.Samples))
	for i, s := range q.Samples {
		responses[i] = loadgen.Response{SampleID: s.ID}
	}
	q.Complete(responses)
}
func (instantSUT) FlushQueries() {}

type benchQSL struct{ total int }

func (q benchQSL) Name() string                             { return "bench" }
func (q benchQSL) TotalSampleCount() int                    { return q.total }
func (q benchQSL) PerformanceSampleCount() int              { return q.total }
func (q benchQSL) LoadSamplesToRAM(indices []int) error     { return nil }
func (q benchQSL) UnloadSamplesFromRAM(indices []int) error { return nil }

func BenchmarkLoadGenSingleStream(b *testing.B) {
	settings := loadgen.DefaultSettings(loadgen.SingleStream)
	settings.MinQueryCount = 256
	settings.MinDuration = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := loadgen.StartTest(instantSUT{}, benchQSL{total: 1024}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadGenServer(b *testing.B) {
	settings := loadgen.DefaultSettings(loadgen.Server)
	settings.MinQueryCount = 256
	settings.MinDuration = 0
	settings.ServerTargetQPS = 1e6 // stress the issuing path, not the sleep
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := loadgen.StartTest(instantSUT{}, benchQSL{total: 1024}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadGenOffline(b *testing.B) {
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 4096
	settings.MinDuration = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := loadgen.StartTest(instantSUT{}, benchQSL{total: 1024}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Native reference-model inference (the substrate's compute cost). ---

// benchmarkPredict times Engine.Predict on the given samples over one
// recycled arena, the way a backend worker calls it.
func benchmarkPredict(b *testing.B, e model.Engine, samples []*dataset.Sample) {
	b.Helper()
	s := tensor.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := e.Predict(samples, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/sample")
}

func benchmarkClassifier(b *testing.B, build func(model.ClassifierConfig) (*model.ImageClassifier, error)) {
	b.Helper()
	m, err := build(model.ClassifierConfig{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPredict(b, m, benchSamples(2, 1, m.InputShape()))
}

func BenchmarkResNet50MiniInference(b *testing.B) { benchmarkClassifier(b, model.NewResNet50Mini) }
func BenchmarkMobileNetV1MiniInference(b *testing.B) {
	benchmarkClassifier(b, model.NewMobileNetV1Mini)
}

func BenchmarkSSDMobileNetMiniDetection(b *testing.B) {
	m, err := model.NewSSDMobileNetMini(model.DetectorConfig{Classes: 5, ImageSize: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPredict(b, m, benchSamples(3, 1, m.InputShape()))
}

func BenchmarkGNMTMiniTranslation(b *testing.B) {
	m, err := model.NewGNMTMini(model.TranslatorConfig{Vocab: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPredict(b, m, []*dataset.Sample{{Tokens: []int{5, 9, 13, 21, 34, 8}}})
}

// --- Compute-kernel microbenchmarks (the throughput the paper's "as fast as
// the hardware allows" requirement hinges on). The serial reference kernels
// they used to be compared against live in internal/tensor's tests. ---

func randTensor(seed uint64, shape ...int) *tensor.Tensor {
	t := tensor.MustNew(shape...)
	rng := stats.NewRNG(seed)
	data := t.Data()
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return t
}

func BenchmarkKernelMatMul(b *testing.B) {
	a := randTensor(1, 128, 256)
	bm := randTensor(2, 256, 128)
	dst := tensor.MustNew(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMulInto(dst, a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelGEMMSIMD measures the SIMD GEMM microkernels against the
// forced-scalar path on the shapes that bracket the kernels' regimes: a
// cache-resident square GEMM (every operand fits in L2, so the benchmark sees
// pure ALU throughput) and a streaming GEMM whose B matrix exceeds L2 (the
// panel loop's memory-bandwidth regime). One sub-benchmark per dispatch tier;
// tiers the host cannot run are skipped, so the output shows exactly what
// this machine's silicon earned.
func BenchmarkKernelGEMMSIMD(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"cache_64x64x64", 64, 64, 64},
		{"stream_64x256x4096", 64, 256, 4096},
	}
	tiers := []tensor.SIMDTier{tensor.SIMDOff, tensor.SIMDAVX2, tensor.SIMDFMA}
	prev := tensor.ActiveSIMD()
	defer tensor.SetSIMD(prev)
	for _, sh := range shapes {
		a := randTensor(11, sh.m, sh.k)
		bm := randTensor(12, sh.k, sh.n)
		dst := tensor.MustNew(sh.m, sh.n)
		flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
		for _, tier := range tiers {
			b.Run(fmt.Sprintf("%s/%s", sh.name, tier), func(b *testing.B) {
				if !tensor.SIMDSupported(tier) {
					b.Skipf("tier %s not supported on this CPU", tier)
				}
				tensor.SetSIMD(tier)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tensor.MatMulInto(dst, a, bm); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}

func BenchmarkKernelConv2D(b *testing.B) {
	input := randTensor(3, 32, 1, 32, 32) // a batch of one
	kernels := randTensor(4, 64, 32, 3, 3)
	bias := randTensor(5, 64)
	dst := tensor.MustNew(64, 1, 32, 32)
	opts := tensor.Conv2DOptions{Stride: 1, Padding: 1}
	s := tensor.NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if err := tensor.Conv2DBatchedInto(dst, input, kernels, bias, opts, tensor.PostNone, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDepthwiseConv2D(b *testing.B) {
	input := randTensor(6, 64, 1, 32, 32) // a batch of one
	kernels := randTensor(7, 64, 3, 3)
	bias := randTensor(8, 64)
	dst := tensor.MustNew(64, 1, 32, 32)
	opts := tensor.Conv2DOptions{Stride: 1, Padding: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tensor.DepthwiseConv2DBatchedInto(dst, input, kernels, bias, opts, tensor.PostNone); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Quantization flow. ---

func BenchmarkINT8WeightQuantization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := model.NewMobileNetV1Mini(model.ClassifierConfig{Classes: 10, ImageSize: 16, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := quantize.Model(m.Weights(), quantize.INT8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Virtual-time scenario simulation (the experiment substrate). ---

func BenchmarkQueueSimServer(b *testing.B) {
	platform, err := simhw.FindPlatform("dc-gpu-g1")
	if err != nil {
		b.Fatal(err)
	}
	w := simhw.StandardWorkloads()["resnet50-v1.5"]
	peak, err := platform.PeakThroughput(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simhw.SimulateServer(platform, w, peak/2, 15*time.Millisecond, 4096, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxServerQPSSearch(b *testing.B) {
	platform, err := simhw.FindPlatform("dc-gpu-g1")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := core.Spec(core.ImageClassificationHeavy)
	if err != nil {
		b.Fatal(err)
	}
	w := simhw.StandardWorkloads()[string(spec.ReferenceModel)]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simhw.MaxServerQPS(platform, w, spec.ServerLatencyBound, spec.ServerLatencyPercentile,
			simhw.SearchOptions{Queries: 1024, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end native harness run (build + performance + accuracy). ---

func BenchmarkHarnessSingleStreamEndToEnd(b *testing.B) {
	assembly, err := harness.BuildNative(core.ImageClassificationLight, harness.BuildOptions{DatasetSamples: 48, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	settings := harness.QuickSettings(assembly.Spec, loadgen.SingleStream, 64)
	settings.MinDuration = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(assembly, harness.RunOptions{Scenario: loadgen.SingleStream, Settings: &settings}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine.Predict across batch sizes: what batching buys per sample. ---

// benchSamples builds n random image samples for an engine's input shape.
func benchSamples(seed uint64, n int, shape []int) []*dataset.Sample {
	rng := stats.NewRNG(seed)
	out := make([]*dataset.Sample, n)
	for i := range out {
		img := tensor.MustNew(shape...)
		data := img.Data()
		for j := range data {
			data[j] = float32(rng.NormFloat64())
		}
		out[i] = &dataset.Sample{Index: i, Image: img}
	}
	return out
}

// BenchmarkBatchedPredict times Engine.Predict (one im2col+GEMM per layer for
// the whole batch) at the offline-relevant batch sizes. Each op processes the
// whole batch; ns/sample is the figure to compare across batch sizes.
func BenchmarkBatchedPredict(b *testing.B) {
	builders := []struct {
		name  string
		build func(model.ClassifierConfig) (*model.ImageClassifier, error)
	}{
		{"resnet50", model.NewResNet50Mini},
		{"mobilenet", model.NewMobileNetV1Mini},
	}
	for _, bl := range builders {
		m, err := bl.build(model.ClassifierConfig{Classes: 10, ImageSize: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 8, 32} {
			samples := benchSamples(uint64(batch)*31, batch, m.InputShape())
			b.Run(fmt.Sprintf("%s/batch%d", bl.name, batch), func(b *testing.B) { benchmarkPredict(b, m, samples) })
		}
	}
}

// benchmarkOffline runs the full offline scenario — LoadGen, one merged
// query, native backend — and reports the samples/s the LoadGen measured.
func benchmarkOffline(b *testing.B, engine model.Engine, ds dataset.Dataset, minSamples int) {
	b.Helper()
	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		b.Fatal(err)
	}
	sut, err := backend.NewNative(backend.NativeConfig{Engine: engine, Store: qsl})
	if err != nil {
		b.Fatal(err)
	}
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = minSamples
	settings.MinDuration = 0
	b.ReportAllocs()
	var throughput float64
	for i := 0; i < b.N; i++ {
		res, err := loadgen.StartTest(sut, qsl, settings)
		if err != nil {
			b.Fatal(err)
		}
		throughput = res.OfflineSamplesPerSec
	}
	sut.Wait()
	if errs := sut.Errors(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	b.ReportMetric(throughput, "samples/s")
}

// BenchmarkOfflineBatched is the system-level view of batched execution on
// MobileNet, the paper's light (high-throughput) offline classification
// workload.
func BenchmarkOfflineBatched(b *testing.B) {
	m, err := model.NewMobileNetV1Mini(model.ClassifierConfig{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Samples: 64, Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkOffline(b, m, ds, 4096)
}

// benchTextSamples builds n ragged token sentences from the synthetic
// translation generator.
func benchTextSamples(b *testing.B, n int) []*dataset.Sample {
	b.Helper()
	ds, err := dataset.NewSyntheticText(dataset.TextConfig{Samples: n, Vocab: 64, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*dataset.Sample, n)
	for i := range out {
		s, err := ds.Sample(i)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// BenchmarkGNMTBatchedDecode times greedy decoding (one GEMM per weight matrix
// per step over all active sentences, finished sentences compacting out) at
// the offline-relevant batch sizes.
func BenchmarkGNMTBatchedDecode(b *testing.B) {
	g, err := model.NewGNMTMini(model.TranslatorConfig{Vocab: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8, 32} {
		samples := benchTextSamples(b, batch)
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchmarkPredict(b, g, samples) })
	}
}

// BenchmarkWideBatchedPredict measures the weight-streaming amortization the
// wide-channel classifier exists for: its weights exceed L2, so a batch of
// one re-streams every weight panel per sample while a larger batch streams
// each panel once per micro-batch (A-panel reuse).
func BenchmarkWideBatchedPredict(b *testing.B) {
	m, err := model.NewWideResNetMini(model.ClassifierConfig{Classes: 10, ImageSize: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8, 32} {
		samples := benchSamples(uint64(batch)*37, batch, m.InputShape())
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchmarkPredict(b, m, samples) })
	}
}

// BenchmarkOfflineGNMT is the system-level view of the recurrent path: the
// full offline translation scenario.
func BenchmarkOfflineGNMT(b *testing.B) {
	g, err := model.NewGNMTMini(model.TranslatorConfig{Vocab: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.NewSyntheticText(dataset.TextConfig{Samples: 64, Vocab: 64, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkOffline(b, g, ds, 512)
}

// --- Network serving: the same engine as an in-process SUT vs served over a
// loopback TCP socket (internal/serve + backend.Remote). The remote variants
// also report the server's queue/service p99 breakdown, the quantities an
// in-process SUT cannot exhibit. ---

// servingStack builds the MobileNet engine + QSL pair the serving benchmarks
// share.
func servingStack(b *testing.B) (model.Engine, *dataset.QSL) {
	b.Helper()
	m, err := model.NewMobileNetV1Mini(model.ClassifierConfig{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Samples: 64, Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		b.Fatal(err)
	}
	return m, qsl
}

// startServing deploys engine behind a loopback serve.Server with a connected
// Remote, cleaned up when the benchmark ends.
func startServing(b *testing.B, engine model.Engine, qsl *dataset.QSL) (*serve.Server, *backend.Remote) {
	b.Helper()
	srv, err := serve.New(serve.Config{Engine: engine, Store: qsl, BatchWait: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	remote, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.Addr(), Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { remote.Close() })
	return srv, remote
}

// BenchmarkServingServer runs the Server scenario end to end, in-process vs
// over the wire. One op is one complete LoadGen run; "qps" is the achieved
// rate of the last run.
func BenchmarkServingServer(b *testing.B) {
	engine, qsl := servingStack(b)
	settings := loadgen.DefaultSettings(loadgen.Server)
	settings.MinQueryCount = 256
	settings.MinDuration = 0
	settings.ServerTargetQPS = 1000
	settings.ServerTargetLatency = 100 * time.Millisecond

	native, err := backend.NewNative(backend.NativeConfig{Engine: engine, Store: qsl})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inprocess", func(b *testing.B) {
		var qps float64
		for i := 0; i < b.N; i++ {
			res, err := loadgen.StartTest(native, qsl, settings)
			if err != nil {
				b.Fatal(err)
			}
			qps = res.ServerAchievedQPS
		}
		native.Wait()
		b.ReportMetric(qps, "qps")
	})

	srv, remote := startServing(b, engine, qsl)
	b.Run("remote", func(b *testing.B) {
		var qps float64
		for i := 0; i < b.N; i++ {
			res, err := loadgen.StartTest(remote, qsl, settings)
			if err != nil {
				b.Fatal(err)
			}
			if res.ResponsesDropped > 0 {
				b.Fatalf("%d responses dropped", res.ResponsesDropped)
			}
			qps = res.ServerAchievedQPS
		}
		remote.Wait()
		if errs := remote.Errors(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		snap := srv.Metrics()
		b.ReportMetric(qps, "qps")
		b.ReportMetric(float64(snap.QueueP99), "queue_p99_ns")
		b.ReportMetric(float64(snap.ServiceP99), "service_p99_ns")
	})
}

// BenchmarkServingTrace measures the span subsystem's overhead: the same
// Server-scenario run over the wire with tracing off versus sampled at 1/64
// on both ends (the production default). One op is one complete LoadGen run;
// "qps" is the achieved rate of the last run, and the acceptance bar is the
// traced leg within 2% of the untraced one.
func BenchmarkServingTrace(b *testing.B) {
	settings := loadgen.DefaultSettings(loadgen.Server)
	settings.MinQueryCount = 256
	settings.MinDuration = 0
	settings.ServerTargetQPS = 1000
	settings.ServerTargetLatency = 100 * time.Millisecond

	run := func(b *testing.B, clientTr, serverTr *trace.Tracer) {
		engine, qsl := servingStack(b)
		srv, err := serve.New(serve.Config{
			Engine: engine, Store: qsl, BatchWait: 2 * time.Millisecond, Tracer: serverTr,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		remote, err := backend.NewRemote(backend.RemoteConfig{
			Addr: srv.Addr(), Conns: 2, Tracer: clientTr,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { remote.Close() })
		var qps float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := loadgen.StartTest(remote, qsl, settings)
			if err != nil {
				b.Fatal(err)
			}
			if res.ResponsesDropped > 0 {
				b.Fatalf("%d responses dropped", res.ResponsesDropped)
			}
			qps = res.ServerAchievedQPS
		}
		remote.Wait()
		if errs := remote.Errors(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		b.ReportMetric(qps, "qps")
		if clientTr != nil {
			records := clientTr.Records()
			b.ReportMetric(float64(len(records)), "spans")
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, nil, nil) })
	b.Run("traced", func(b *testing.B) {
		run(b, trace.New(trace.Config{SampleEvery: 64}), trace.New(trace.Config{SampleEvery: 64}))
	})
}

// BenchmarkServingOffline runs the Offline scenario's single merged query
// through both SUT forms: the remote path streams samples under client flow
// control while the server's dynamic batcher re-coalesces them.
func BenchmarkServingOffline(b *testing.B) {
	engine, qsl := servingStack(b)
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 2048
	settings.MinDuration = 0

	native, err := backend.NewNative(backend.NativeConfig{Engine: engine, Store: qsl})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inprocess", func(b *testing.B) {
		var tput float64
		for i := 0; i < b.N; i++ {
			res, err := loadgen.StartTest(native, qsl, settings)
			if err != nil {
				b.Fatal(err)
			}
			tput = res.OfflineSamplesPerSec
		}
		native.Wait()
		b.ReportMetric(tput, "samples/s")
	})

	srv, remote := startServing(b, engine, qsl)
	b.Run("remote", func(b *testing.B) {
		var tput float64
		for i := 0; i < b.N; i++ {
			res, err := loadgen.StartTest(remote, qsl, settings)
			if err != nil {
				b.Fatal(err)
			}
			if res.ResponsesDropped > 0 {
				b.Fatalf("%d responses dropped", res.ResponsesDropped)
			}
			tput = res.OfflineSamplesPerSec
		}
		remote.Wait()
		if errs := remote.Errors(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		snap := srv.Metrics()
		b.ReportMetric(tput, "samples/s")
		b.ReportMetric(float64(snap.QueueP99), "queue_p99_ns")
		b.ReportMetric(float64(snap.ServiceP99), "service_p99_ns")
	})
}

// startServingFleet deploys engine behind n loopback serve.Servers with a
// Remote fanning out over all of them.
func startServingFleet(b *testing.B, engine model.Engine, qsl *dataset.QSL, n int) ([]*serve.Server, *backend.Remote) {
	b.Helper()
	var (
		servers []*serve.Server
		addrs   []string
	)
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{Engine: engine, Store: qsl, BatchWait: 2 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	remote, err := backend.NewRemote(backend.RemoteConfig{Addrs: addrs, Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { remote.Close() })
	return servers, remote
}

// BenchmarkServingReplicas measures the scale-out serving path: the Server
// and Offline scenarios against 1 vs 2 loopback replicas, with the
// per-replica completion/latency breakdown reported for the sharded runs.
// On a single-core runner the replicas share the core, so parity (not
// speedup) is the expected outcome; the speedup materializes when each
// replica gets its own cores.
func BenchmarkServingReplicas(b *testing.B) {
	engine, qsl := servingStack(b)
	serverSettings := loadgen.DefaultSettings(loadgen.Server)
	serverSettings.MinQueryCount = 256
	serverSettings.MinDuration = 0
	serverSettings.ServerTargetQPS = 1000
	serverSettings.ServerTargetLatency = 100 * time.Millisecond
	offlineSettings := loadgen.DefaultSettings(loadgen.Offline)
	offlineSettings.MinSampleCount = 2048
	offlineSettings.MinDuration = 0

	// Each sub-benchmark gets its own fleet: server metrics accumulate from
	// server start, so sharing one fleet would fold the previous scenario's
	// traffic into the reported per-replica breakdown.
	reportReplicas := func(b *testing.B, servers []*serve.Server) {
		b.Helper()
		for i, srv := range servers {
			snap := srv.Metrics()
			b.ReportMetric(float64(snap.Completed), fmt.Sprintf("replica%d_completed", i))
			b.ReportMetric(float64(snap.ServiceP99), fmt.Sprintf("replica%d_service_p99_ns", i))
		}
	}
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("server/replicas%d", replicas), func(b *testing.B) {
			servers, remote := startServingFleet(b, engine, qsl, replicas)
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := loadgen.StartTest(remote, qsl, serverSettings)
				if err != nil {
					b.Fatal(err)
				}
				if res.ResponsesDropped > 0 {
					b.Fatalf("%d responses dropped", res.ResponsesDropped)
				}
				qps = res.ServerAchievedQPS
			}
			remote.Wait()
			if errs := remote.Errors(); len(errs) > 0 {
				b.Fatal(errs[0])
			}
			b.ReportMetric(qps, "qps")
			reportReplicas(b, servers)
		})
		b.Run(fmt.Sprintf("offline/replicas%d", replicas), func(b *testing.B) {
			servers, remote := startServingFleet(b, engine, qsl, replicas)
			var tput float64
			for i := 0; i < b.N; i++ {
				res, err := loadgen.StartTest(remote, qsl, offlineSettings)
				if err != nil {
					b.Fatal(err)
				}
				if res.ResponsesDropped > 0 {
					b.Fatalf("%d responses dropped", res.ResponsesDropped)
				}
				tput = res.OfflineSamplesPerSec
			}
			remote.Wait()
			if errs := remote.Errors(); len(errs) > 0 {
				b.Fatal(errs[0])
			}
			b.ReportMetric(tput, "samples/s")
			reportReplicas(b, servers)
		})
	}
}

// BenchmarkServingRecovery measures the cost of surviving a replica crash:
// an Offline stream runs through a 2-replica fleet while replica 0 is killed
// mid-run and restarted on its address. The run must complete with zero
// dropped responses (the fleet routes around the outage and failover retries
// re-deliver the stranded samples); reported metrics are the faulted run's
// throughput and the outage's measured down-to-rejoin latency.
func BenchmarkServingRecovery(b *testing.B) {
	engine, qsl := servingStack(b)
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 2048
	settings.MinDuration = 0

	var tput, rejoinMS float64
	for i := 0; i < b.N; i++ {
		scfg := serve.Config{Engine: engine, Store: qsl, BatchWait: 2 * time.Millisecond}
		srv0, err := serve.New(scfg)
		if err != nil {
			b.Fatal(err)
		}
		srv1, err := serve.New(scfg)
		if err != nil {
			b.Fatal(err)
		}
		remote, err := backend.NewRemote(backend.RemoteConfig{
			Addrs:         []string{srv0.Addr(), srv1.Addr()},
			RedialInitial: time.Millisecond,
			RedialMax:     10 * time.Millisecond,
			RecoverySeed:  uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}

		done := make(chan *loadgen.Result, 1)
		go func() {
			res, err := loadgen.StartTest(remote, qsl, settings)
			if err != nil {
				b.Error(err)
			}
			done <- res
		}()
		// Crash replica 0 once it has served traffic, then bring it back.
		for srv0.Metrics().Completed == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		srv0.Kill()
		time.Sleep(2 * time.Millisecond)
		restarted, err := serve.New(serve.Config{
			Engine: engine, Store: qsl, BatchWait: 2 * time.Millisecond, Addr: srv0.Addr(),
		})
		if err != nil {
			b.Fatal(err)
		}

		res := <-done
		if res == nil {
			b.Fatal("run failed")
		}
		if res.ResponsesDropped > 0 {
			b.Fatalf("%d responses dropped despite failover", res.ResponsesDropped)
		}
		remote.Wait()
		deadline := time.Now().Add(5 * time.Second)
		for remote.Recovery().Rejoins == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		rec := remote.Recovery()
		if rec.Rejoins == 0 {
			b.Fatal("killed replica never rejoined")
		}
		iv := rec.DownIntervals[0]
		rejoinMS = float64(iv.End.Sub(iv.Start)) / float64(time.Millisecond)
		tput = res.OfflineSamplesPerSec

		remote.Close()
		restarted.Close()
		srv1.Close()
	}
	b.ReportMetric(tput, "samples/s")
	b.ReportMetric(rejoinMS, "rejoin_ms")
}

// BenchmarkServingAutoscale measures what live capacity management buys an
// undersized server: the same Offline stream runs against a 1-worker pool,
// once with its startup limits frozen and once with a capacity manager
// growing workers and queue from observed pressure mid-run. Reported metrics
// are each form's throughput plus the managed pool's final worker count and
// recorded resize decisions.
func BenchmarkServingAutoscale(b *testing.B) {
	engine, qsl := servingStack(b)
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 2048
	settings.MinDuration = 0

	small := serve.Config{
		Engine: engine, Store: qsl,
		Workers: 1, MaxBatch: 4, QueueDepth: 4096, BatchWait: 500 * time.Microsecond,
	}
	run := func(b *testing.B, srv *serve.Server) float64 {
		b.Helper()
		// The in-flight window must outrun the dispatcher's batch pre-buffer,
		// or the admission queue never shows the depth the manager reads as
		// pressure.
		remote, err := backend.NewRemote(backend.RemoteConfig{
			Addr: srv.Addr(), Conns: 2, MaxInFlight: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer remote.Close()
		var tput float64
		for i := 0; i < b.N; i++ {
			res, err := loadgen.StartTest(remote, qsl, settings)
			if err != nil {
				b.Fatal(err)
			}
			if res.ResponsesDropped > 0 {
				b.Fatalf("%d responses dropped", res.ResponsesDropped)
			}
			tput = res.OfflineSamplesPerSec
		}
		remote.Wait()
		if errs := remote.Errors(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		return tput
	}

	b.Run("static", func(b *testing.B) {
		srv, err := serve.New(small)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		b.ReportMetric(run(b, srv), "samples/s")
	})

	b.Run("managed", func(b *testing.B) {
		srv, err := serve.New(small)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		// Env and MaxWorkers are left to detection: the manager grows the
		// pool only as far as the measured cgroup/runtime CPU limit allows,
		// so workers_final reports what this machine actually earned. The
		// idle-shrink threshold is pushed out of reach so the gaps between
		// benchmark iterations don't oscillate the pool mid-measurement.
		m := capacity.NewManager(srv, capacity.Config{
			Interval: 2 * time.Millisecond, GrowAfter: 1, Cooldown: 4 * time.Millisecond,
			MaxQueue: 8192, ShrinkAfter: 1 << 20,
		})
		tput := run(b, srv)
		m.Close()
		lim, err := srv.Limits("")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tput, "samples/s")
		b.ReportMetric(float64(lim.Workers), "workers_final")
		b.ReportMetric(float64(len(m.Events())), "resize_decisions")
	})
}

// --- Statistical machinery. ---

func BenchmarkPoissonSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := stats.NewPoissonProcess(stats.NewRNG(uint64(i)), 1000)
		if err != nil {
			b.Fatal(err)
		}
		p.Schedule(8192)
	}
}

func BenchmarkQueryRequirementTableIV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stats.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard against the synthetic dataset generator regressing, since every
// harness benchmark depends on it.
func BenchmarkSyntheticImageNetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.NewSyntheticImages(dataset.ImageConfig{
			Samples: 256, Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingSwarm runs the Swarm scenario end to end over a loopback
// serving deployment: a population of simulated client sessions, each on its
// own Poisson clock with reconnect churn, multiplexed over the Remote's
// connection pool. One op is one complete LoadGen run; "qps" is the
// aggregate achieved rate and "churns" the session reconnects of the last
// run.
func BenchmarkServingSwarm(b *testing.B) {
	engine, qsl := servingStack(b)
	settings := loadgen.DefaultSettings(loadgen.Swarm)
	settings.MinQueryCount = 512
	settings.MinDuration = 0
	settings.SwarmSessions = 500
	settings.SwarmSessionQPS = 2
	settings.SwarmSessionLifetime = 100 * time.Millisecond
	settings.ServerTargetLatency = 500 * time.Millisecond

	_, remote := startServing(b, engine, qsl)
	var qps, sessions, churns float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := loadgen.StartTest(remote, qsl, settings)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Valid {
			b.Fatalf("swarm run invalid: %v", res.ValidityMessages)
		}
		qps = res.ServerAchievedQPS
		sessions = float64(res.SwarmSessions)
		churns = float64(res.SwarmChurns)
	}
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	b.ReportMetric(qps, "qps")
	b.ReportMetric(sessions, "sessions")
	b.ReportMetric(churns, "churns")
}
