package main

import (
	"fmt"
	"runtime"
	"time"

	"mlperf/internal/backend"
	"mlperf/internal/dataset"
	"mlperf/internal/harness"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/parallel"
	"mlperf/internal/payload"
	"mlperf/internal/serve"
	"mlperf/internal/tensor"
)

// Isolated metrics time one layer's public function alone in a warmed loop.
// They cost little, so every traced run measures all that do not need a model
// the workload has not built.

// isolatedRounds is how many windows an isolated loop is timed over; the
// reported figure is the median window.
const isolatedRounds = 5

// timeOp returns the median nanoseconds per call of fn over isolatedRounds
// windows of at least window each, after a warm-up window. Fast calls are
// timed eight to a clock reading, so the reading does not weigh on them.
func timeOp(window time.Duration, fn func()) float64 {
	first := time.Now()
	fn()
	batch := 8
	if time.Since(first) > window/16 {
		batch = 1
	}
	oneWindow := func() float64 {
		calls := 0
		start := time.Now()
		for {
			for i := 0; i < batch; i++ {
				fn()
			}
			calls += batch
			if el := time.Since(start); el >= window {
				return float64(el) / float64(calls)
			}
		}
	}
	oneWindow()
	rounds := make([]float64, isolatedRounds)
	for i := range rounds {
		rounds[i] = oneWindow()
	}
	return median(rounds)
}

// allocsPerOp returns heap allocations per call of fn, averaged over calls.
func allocsPerOp(calls int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// kernelSpec describes one isolated tensor kernel: what it computes, how many
// floating-point operations a call makes, and the bytes a call must move,
// computed from the tensor sizes (not measured).
type kernelSpec struct {
	metric string
	what   string
	flops  float64
	bytes  float64
	call   func() error
}

// kernelBatch is the batch the batched kernels are timed at.
const kernelBatch = 16

func filled(shape ...int) *tensor.Tensor {
	t, err := tensor.New(shape...)
	if err != nil {
		panic(err) // shapes are constants of this file
	}
	for i, d := 0, t.Data(); i < len(d); i++ {
		d[i] = float32(i%17)/17 - 0.5
	}
	return t
}

func floatBytes(ts ...*tensor.Tensor) float64 {
	n := 0
	for _, t := range ts {
		n += t.Len()
	}
	return 4 * float64(n)
}

// kernelSpecs builds the six tensor kernels at the shapes the models run them.
func kernelSpecs() []kernelSpec {
	const n = kernelBatch
	scratch := tensor.NewScratch()

	ca, cb, cc := filled(64, 64), filled(64, 64), filled(64, 64)
	sa, sb, sc := filled(64, 256), filled(256, 4096), filled(64, 4096)
	// ResNet50-mini stage 1: 32->32 channels, 3x3, 8x8 planes.
	convIn, convK, convBias, convOut := filled(32, n, 8, 8), filled(32, 32, 3, 3), filled(32), filled(32, n, 8, 8)
	// MobileNet-v1-mini dw1: 16 channels, 3x3, 8x8 planes.
	dwIn, dwK, dwBias, dwOut := filled(16, n, 8, 8), filled(16, 3, 3), filled(16), filled(16, n, 8, 8)
	// ResNet50-mini classifier head: 64 features -> 10 classes.
	fcW, fcX, fcB, fcY := filled(10, 64), filled(64, n), filled(10), filled(10, n)
	// GNMT-mini LSTM recurrent step: 4*32 gates x 32 hidden.
	mvA, mvX, mvY := filled(128, 32), filled(32), filled(128)

	opts := tensor.Conv2DOptions{Stride: 1, Padding: 1}
	return []kernelSpec{
		{"tensor.gemm_cache_gflops", "MatMulInto 64x64x64 (cache resident)", 2 * 64 * 64 * 64, floatBytes(ca, cb, cc),
			func() error { return tensor.MatMulInto(cc, ca, cb) }},
		{"tensor.gemm_stream_gflops", "MatMulInto 64x256x4096 (streams B and C)", 2 * 64 * 256 * 4096, floatBytes(sa, sb, sc),
			func() error { return tensor.MatMulInto(sc, sa, sb) }},
		{"tensor.conv_batched_gflops", fmt.Sprintf("Conv2DBatchedInto 32->32 3x3 on 8x8, batch %d (ResNet50-mini stage 1)", n),
			2 * 32 * 32 * 9 * 64 * n, floatBytes(convIn, convK, convBias, convOut),
			func() error {
				scratch.Reset()
				return tensor.Conv2DBatchedInto(convOut, convIn, convK, convBias, opts, tensor.PostReLU, scratch)
			}},
		{"tensor.depthwise_batched_gflops", fmt.Sprintf("DepthwiseConv2DBatchedInto 16ch 3x3 on 8x8, batch %d (MobileNet-mini dw1)", n),
			2 * 16 * 9 * 64 * n, floatBytes(dwIn, dwK, dwBias, dwOut),
			func() error {
				return tensor.DepthwiseConv2DBatchedInto(dwOut, dwIn, dwK, dwBias, opts, tensor.PostReLU6)
			}},
		{"tensor.dense_batched_gflops", fmt.Sprintf("DenseBatchedInto 64->10, batch %d (classifier head)", n),
			2 * 10 * 64 * n, floatBytes(fcW, fcX, fcB, fcY),
			func() error { return tensor.DenseBatchedInto(fcY, fcW, fcX, fcB) }},
		{"tensor.matvec_gflops", "MatVecInto 128x32 (GNMT-mini LSTM recurrent step)", 2 * 128 * 32, floatBytes(mvA, mvX, mvY),
			func() error { return tensor.MatVecInto(mvY, mvA, mvX) }},
	}
}

// isolatedTensor measures the kernel GFLOP/s figures and the parallel.For
// dispatch cost.
func isolatedTensor(window time.Duration, rep *report) error {
	for _, k := range kernelSpecs() {
		if err := k.call(); err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
		ns := timeOp(window, func() { _ = k.call() }) // checked just above
		rep.set(k.metric, k.flops/ns, "GFLOP/s",
			fmt.Sprintf("%s: %.0f flop and %.0f computed bytes per call, %.0f ns per call", k.what, k.flops, k.bytes, ns))
	}
	// The batched convolution hands parallel.For one item per sample panel,
	// grain 1; an empty body leaves the dispatch cost.
	ns := timeOp(window, func() { parallel.For(kernelBatch, 1, func(lo, hi int) {}) })
	rep.set("parallel.for_overhead_ns", ns, "ns", fmt.Sprintf("parallel.For(%d, 1, empty) on %d pool workers", kernelBatch, parallel.Default().Workers()))
	return nil
}

// isolatedPayload times the binary codec's encode+decode round trip for the
// two payload shapes the workloads put on the wire.
func isolatedPayload(window time.Duration, rep *report) error {
	tokens := make([]int, 24) // a typical GNMT-mini output length
	for i := range tokens {
		tokens[i] = (i * 7) % 64
	}
	buf := make([]byte, 0, 256)
	into := make([]int, 0, 64)
	var failure error
	class := func() {
		buf = payload.AppendClass(buf[:0], 7)
		if _, err := payload.DecodeClass(buf); err != nil {
			failure = err
		}
	}
	toks := func() {
		buf = payload.AppendTokens(buf[:0], tokens)
		var err error
		if into, err = payload.DecodeTokensInto(into[:0], buf); err != nil {
			failure = err
		}
	}
	rep.set("payload.class_roundtrip_ns", timeOp(window, class), "ns", "AppendClass + DecodeClass, binary codec")
	rep.set("payload.class_allocs", allocsPerOp(1000, class), "count", "heap allocations per class round trip")
	rep.set("payload.tokens_roundtrip_ns", timeOp(window, toks), "ns", fmt.Sprintf("AppendTokens + DecodeTokensInto of %d tokens, binary codec", len(tokens)))
	rep.set("payload.tokens_allocs", allocsPerOp(1000, toks), "count", "heap allocations per token-list round trip")
	return failure
}

// modelPrefix maps the workload's engine to its metric prefix.
func modelPrefix(w workload) string {
	switch w.name {
	case "singlestream-resnet":
		return "model.resnet50"
	case "offline-translate-wire":
		return "model.gnmt"
	default:
		return "model.mobilenet"
	}
}

// isolatedModel times the workload's own engine alone, at batch 1 and at its
// preferred batch, on a scratch arena the loop owns.
func isolatedModel(window time.Duration, d *deployment, rep *report) error {
	engine, ds := d.asm.Engine, d.asm.Dataset
	n := 8
	if bs, ok := engine.(model.BatchSizer); ok && bs.PreferredBatch() > 0 {
		n = bs.PreferredBatch()
	}
	samples := make([]*dataset.Sample, n)
	for i := range samples {
		s, err := ds.Sample(i % ds.Size())
		if err != nil {
			return err
		}
		samples[i] = s
	}
	scratch := tensor.NewScratch()
	var failure error
	predict := func(batch []*dataset.Sample) func() {
		return func() {
			scratch.Reset()
			if _, err := engine.Predict(batch, scratch); err != nil {
				failure = err
			}
		}
	}
	prefix := modelPrefix(d.w)
	b1, bN := predict(samples[:1]), predict(samples)
	rep.set(prefix+"_b1_us", timeOp(window, b1)/1e3, "us", "Engine.Predict of 1 sample, per sample")
	rep.set(prefix+"_bN_us", timeOp(window, bN)/1e3/float64(n), "us", fmt.Sprintf("Engine.Predict of %d samples (PreferredBatch), per sample", n))
	// Only these three allocation counts are in the budget: the batch shape
	// each model's workload actually runs.
	if prefix == "model.resnet50" {
		rep.set(prefix+"_b1_allocs", allocsPerOp(10, b1), "count", "heap allocations per batch-1 Predict call")
	} else {
		rep.set(prefix+"_bN_allocs", allocsPerOp(10, bN), "count", fmt.Sprintf("heap allocations per batch-%d Predict call", n))
	}
	return failure
}

// nullSUT completes every query inline with a one-byte answer: what is left is
// the LoadGen's own issue and completion path.
type nullSUT struct{ answer []byte }

func (nullSUT) Name() string  { return "null" }
func (nullSUT) FlushQueries() {}
func (s nullSUT) IssueQuery(q *loadgen.Query) {
	responses := make([]loadgen.Response, len(q.Samples))
	for i, sample := range q.Samples {
		responses[i] = loadgen.Response{SampleID: sample.ID, Data: s.answer}
	}
	q.Complete(responses)
}

// isolatedLoadgen runs the Server scenario against the null SUT at a rate so
// high the generator never sleeps, and an Offline query of the same size
// (queries each).
func isolatedLoadgen(qsl loadgen.QuerySampleLibrary, seed uint64, queries int, rep *report) error {
	sut := nullSUT{answer: []byte{1}}
	seeds := seedsFor(seed, phaseIsolated, 0)
	server := loadgen.DefaultSettings(loadgen.Server)
	server.MinQueryCount, server.MaxQueryCount, server.MinDuration = queries, queries, 0
	server.ServerTargetQPS, server.ServerTargetLatency = 1e9, time.Second
	server.QuerySeed, server.ScheduleSeed = seeds.query, seeds.schedule
	offline := loadgen.DefaultSettings(loadgen.Offline)
	offline.MinSampleCount, offline.MinDuration = queries, 0
	offline.QuerySeed = seeds.query

	var perQuery, perSample, allocs []float64
	for i := 0; i < isolatedRounds; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := loadgen.StartTest(sut, qsl, server)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		perQuery = append(perQuery, float64(res.TestDuration)/float64(res.QueriesCompleted))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(res.QueriesCompleted))
		if res, err = loadgen.StartTest(sut, qsl, offline); err != nil {
			return err
		}
		perSample = append(perSample, float64(res.TestDuration)/float64(res.SamplesCompleted))
	}
	rep.set("loadgen.issue_ns_per_query", median(perQuery), "ns",
		fmt.Sprintf("Server scenario, %d queries against a null SUT completing inline; the Offline query of the same size costs %.0f ns per sample", queries, median(perSample)))
	rep.set("loadgen.allocs_per_query", median(allocs), "count", "heap allocations per Server query against the null SUT, LoadGen bookkeeping included")
	return nil
}

// nullEngine answers every sample with class 0 and does no work.
type nullEngine struct{}

func (nullEngine) Name() string       { return "null" }
func (nullEngine) Kind() dataset.Kind { return dataset.KindImageClassification }
func (nullEngine) Predict(samples []*dataset.Sample, _ *tensor.Scratch) ([]model.Output, error) {
	out := make([]model.Output, len(samples))
	for i := range out {
		out[i].Kind = dataset.KindImageClassification
	}
	return out, nil
}

// isolatedServe deploys the workload's own loopback tier around the null
// engine: the round trip and the burst throughput of serve + Remote with no
// model behind them.
func isolatedServe(d *deployment, seed uint64, length time.Duration, burst int, rep *report) error {
	nproc := runtime.NumCPU()
	loop, err := d.asm.ServeLoopback(harness.ServeOptions{
		Server: serve.Config{Engine: nullEngine{}, Workers: nproc},
		Client: backend.RemoteConfig{Conns: nproc},
	})
	if err != nil {
		return err
	}
	defer loop.Close()
	seeds := seedsFor(seed, phaseIsolated, 1)
	single := loadgen.DefaultSettings(loadgen.SingleStream)
	single.MinQueryCount, single.MinDuration = 1, length
	single.QuerySeed = seeds.query
	offline := loadgen.DefaultSettings(loadgen.Offline)
	offline.MinSampleCount, offline.MinDuration = burst, 0
	offline.QuerySeed = seeds.query

	var rtt, rate []float64
	for i := 0; i < 3; i++ {
		res, err := loadgen.StartTest(loop.Remote, d.asm.QSL, single)
		if err != nil {
			return err
		}
		rtt = append(rtt, micros(res.QueryLatencies.P50))
		if res, err = loadgen.StartTest(loop.Remote, d.asm.QSL, offline); err != nil {
			return err
		}
		if res.ResponsesDropped > 0 {
			return fmt.Errorf("null serving tier dropped %d of %d samples", res.ResponsesDropped, res.SamplesIssued)
		}
		rate = append(rate, res.OfflineSamplesPerSec)
	}
	loop.Remote.Wait()
	rep.set("serve.null_rtt_p50_us", median(rtt), "us", "SingleStream p50 through loopback serve+Remote around a null engine")
	rep.set("serve.null_offline_samples_per_s", median(rate), "1/s", fmt.Sprintf("Offline burst of %d samples through the same null tier", burst))
	return nil
}
