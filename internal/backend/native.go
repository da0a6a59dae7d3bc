// Package backend provides the system-under-test implementations the harness
// runs the LoadGen against:
//
//   - Native executes a model.Engine — the suite's single inference
//     contract, and the only way a model runs — on synthetic data, exercising
//     the full inference path (the closest analogue to a real submission's
//     inference engine). Every query is split into per-worker chunks and each
//     chunk runs as ONE Engine.Predict call: a single-stream query is a chunk
//     of one, a merged offline query gets true batched GEMM execution rather
//     than a sample-by-sample loop. Native does not buffer or merge queries.
//   - Simulated replays a simhw.Platform's service-time model in wall-clock
//     time, so scenario dynamics can be studied for platforms far faster or
//     slower than this machine.
//   - Remote drives one or more serve.Server replicas over loopback TCP
//     sockets: the same loadgen.SUT contract, but with queueing,
//     serialization and connection concurrency — the phenomena that bound
//     achieved QPS in a real datacenter submission — on the measured path.
//     With several Addrs it is the replica router: each sample goes to the
//     live replica with the fewest requests in flight, bounded by a
//     per-replica in-flight window. With Model set it addresses one named
//     engine on a multi-model server. Shed load completes its
//     queries with Dropped responses (the LoadGen invalidates the run) and
//     serving metrics are fetchable merged (ServerMetrics) or per replica
//     (ReplicaMetrics). The Remote is fault tolerant by default: requests
//     stranded by a transport failure fail over to a live replica, failed
//     connections re-dial under per-slot supervisors with exponential
//     backoff and deterministic jitter, recovered servers are readmitted
//     only after a health-probe handshake (and, for a fully-down replica,
//     the reopen barrier), a crashed replica's banked metrics merge with its
//     restarted epoch, and the whole record — down/up intervals, rejoins,
//     redials, retries, post-failover drops — is reported via Recovery.
//
// Dynamic batching — merging queries that arrive separately, the
// optimization that distinguishes the server and offline scenarios (Section
// VI-B) — lives in exactly one place, the serve.Server dispatcher that Remote
// talks to; no backend re-implements it in process.
//
// Because every model is reached through model.Engine, new backends
// (quantized, simulated-batched, multi-tenant) plug in without per-task
// dispatch: the backend never switches on the task kind to run inference.
package backend

import (
	"fmt"
	"runtime"
	"sync"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/tensor"
)

// NativeConfig configures a Native backend.
type NativeConfig struct {
	// Name labels the SUT in results; it defaults to the engine's name.
	Name string
	// Engine is the model behind the SUT. Its Kind determines the sample
	// payload the backend expects from Store.
	Engine model.Engine
	// Store provides input samples.
	Store dataset.Store
	// Workers is the number of concurrent inference workers. It defaults to
	// runtime.GOMAXPROCS(0), floored at 2, so multi-sample (offline/server)
	// traffic saturates every core while the issue loop can still overlap
	// with an in-flight inference on single-core hosts; set it to 1 for a
	// deliberately serial SUT.
	Workers int
	// FlopThreshold, when positive, overrides the compute engine's
	// parallel-dispatch threshold (tensor.SetParallelFlopThreshold) — the
	// multiply-accumulate count below which kernels stay on the calling
	// goroutine. The built-in default was calibrated on a 1-core container;
	// many-core deployments tune it here or via the
	// MLPERF_PARALLEL_FLOP_THRESHOLD environment variable. The override is
	// process-wide (the kernels are shared), never changes results, and
	// applies from NewNative on.
	FlopThreshold int
	// PanelBytes, when positive, overrides the GEMM column-panel cache
	// budget (tensor.SetGEMMPanelBytes), which also fixes the batched
	// convolution's sample-panel split. Process-wide, like FlopThreshold;
	// environment override: MLPERF_GEMM_PANEL_BYTES.
	PanelBytes int
}

// Native runs a model.Engine as the system under test.
type Native struct {
	cfg NativeConfig
	sem chan struct{}
	// preferredBatch is the engine's derived micro-batch (model.BatchSizer),
	// 0 when the engine does not publish one. Batch chunks are floored at it
	// so merged queries are not fragmented below the size the engine's
	// batched kernels were derived for.
	preferredBatch int
	wg             sync.WaitGroup
	errs           errorLog
}

// errorLog accumulates inference errors thread-safely; a real SUT would fail
// the run, so the harness checks Errors after the run.
type errorLog struct {
	mu   sync.Mutex
	errs []error
}

func (e *errorLog) add(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.errs = append(e.errs, err)
}

func (e *errorLog) all() []error {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]error, len(e.errs))
	copy(out, e.errs)
	return out
}

// NewNative validates the configuration and returns the backend.
func NewNative(cfg NativeConfig) (*Native, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("backend: native backend needs an Engine")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("backend: native backend needs a sample store")
	}
	switch cfg.Engine.Kind() {
	case dataset.KindImageClassification, dataset.KindObjectDetection, dataset.KindTranslation:
	default:
		return nil, fmt.Errorf("backend: engine %s reports unknown task kind %v", cfg.Engine.Name(), cfg.Engine.Kind())
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Engine.Name()
	}
	if cfg.Name == "" {
		cfg.Name = "native"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers()
	}
	if cfg.FlopThreshold > 0 {
		tensor.SetParallelFlopThreshold(cfg.FlopThreshold)
	}
	if cfg.PanelBytes > 0 {
		tensor.SetGEMMPanelBytes(cfg.PanelBytes)
	}
	n := &Native{cfg: cfg}
	n.sem = make(chan struct{}, cfg.Workers)
	if bs, ok := cfg.Engine.(model.BatchSizer); ok {
		n.preferredBatch = bs.PreferredBatch()
	}
	return n, nil
}

// defaultWorkers is GOMAXPROCS floored at 2: all cores for throughput, and
// never so few that the LoadGen's issue loop serializes against an in-flight
// inference on a single-core host.
func defaultWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 2 {
		return w
	}
	return 2
}

// Name implements loadgen.SUT.
func (n *Native) Name() string { return n.cfg.Name }

// Engine returns the engine behind the SUT.
func (n *Native) Engine() model.Engine { return n.cfg.Engine }

// IssueQuery implements loadgen.SUT. Single-sample queries are processed by
// a bounded worker pool so concurrent server-style queries overlap; a
// multi-sample (multistream/offline) query takes the batched path, fanning
// its samples out across all workers in contiguous chunks, each of which runs
// as one batched Engine.Predict call.
func (n *Native) IssueQuery(q *loadgen.Query) {
	if len(q.Samples) > 1 {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runBatch(q)
		}()
		return
	}
	for i := range q.Samples {
		lo := i
		n.wg.Add(1)
		n.sem <- struct{}{}
		go func() {
			defer n.wg.Done()
			defer func() { <-n.sem }()
			q.Complete(n.predictChunk(q, lo, lo+1))
		}()
	}
}

// runBatch spreads a multi-sample query's inference across the worker
// semaphore in contiguous chunks. Each chunk is one batched Predict call —
// one im2col+GEMM per layer for the whole chunk on the CNN engines — and is
// reported in a single Complete call, keeping response bookkeeping
// proportional to the worker count rather than the sample count. Because
// every chunk holds a semaphore slot while inferring, total in-flight
// inference — across this batch, concurrent batches and single-sample
// queries — never exceeds cfg.Workers.
func (n *Native) runBatch(q *loadgen.Query) {
	grain := n.batchGrain(len(q.Samples))
	for lo := 0; lo < len(q.Samples); lo += grain {
		hi := lo + grain
		if hi > len(q.Samples) {
			hi = len(q.Samples)
		}
		lo, hi := lo, hi
		n.wg.Add(1)
		n.sem <- struct{}{}
		go func() {
			defer n.wg.Done()
			defer func() { <-n.sem }()
			q.Complete(n.predictChunk(q, lo, hi))
		}()
	}
}

// batchGrain yields several chunks per worker so stragglers rebalance while
// chunks stay large enough to amortize completion bookkeeping and to win
// from batched GEMM execution. Chunks are floored at the engine's preferred
// micro-batch (when it publishes one): a chunk below it would fragment the
// batched kernels beneath the size their cache-residency was derived for, so
// straggler rebalancing yields to batch efficiency on small queries. The
// floor never starves workers, though — it is capped at an even split of the
// query, so every worker still gets a chunk (the engine's internal
// micro-batching copes with chunks below its preferred size).
func (n *Native) batchGrain(samples int) int {
	grain := samples / (4 * n.cfg.Workers)
	if pref := n.preferredBatch; grain < pref {
		grain = pref
		if even := (samples + n.cfg.Workers - 1) / n.cfg.Workers; grain > even {
			grain = even
		}
	}
	if grain > samples {
		grain = samples
	}
	if grain < 1 {
		grain = 1
	}
	return grain
}

// predictChunk runs samples [lo, hi) of the query through the engine as one
// batched Predict call and returns one response per sample (nil Data and
// Dropped set for samples that failed to load or infer, with the error
// recorded — so failed samples also invalidate the run's validity). If the
// batched call fails — one bad sample poisons a whole Predict — the chunk is
// retried sample by sample so errors stay isolated to the samples that
// actually caused them, as they are for single-sample queries.
func (n *Native) predictChunk(q *loadgen.Query, lo, hi int) []loadgen.Response {
	responses := make([]loadgen.Response, hi-lo)
	samples := make([]*dataset.Sample, 0, hi-lo)
	slots := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		responses[i-lo].SampleID = q.Samples[i].ID
		sample, err := n.cfg.Store.Get(q.Samples[i].Index)
		if err != nil {
			n.errs.add(fmt.Errorf("backend %s: fetching sample %d: %w", n.cfg.Name, q.Samples[i].Index, err))
			continue
		}
		samples = append(samples, sample)
		slots = append(slots, i-lo)
	}
	if len(samples) == 0 {
		return markDropped(responses)
	}
	outputs, err := n.cfg.Engine.Predict(samples, nil)
	if err != nil || len(outputs) != len(samples) {
		if err == nil {
			err = fmt.Errorf("engine returned %d outputs for %d samples", len(outputs), len(samples))
		}
		if len(samples) == 1 {
			n.errs.add(fmt.Errorf("backend %s: predicting sample %d: %w", n.cfg.Name, samples[0].Index, err))
			return markDropped(responses)
		}
		// Batched pass failed: isolate the offending samples.
		for j, sample := range samples {
			out, err := n.cfg.Engine.Predict(samples[j:j+1], nil)
			if err != nil || len(out) != 1 {
				if err == nil {
					err = fmt.Errorf("engine returned %d outputs for 1 sample", len(out))
				}
				n.errs.add(fmt.Errorf("backend %s: predicting sample %d: %w", n.cfg.Name, sample.Index, err))
				continue
			}
			responses[slots[j]].Data = n.encodeOutput(out[0], sample.Index)
		}
		return markDropped(responses)
	}
	for j, out := range outputs {
		responses[slots[j]].Data = n.encodeOutput(out, samples[j].Index)
	}
	return markDropped(responses)
}

// markDropped flags every response that carries no prediction (failed load,
// inference or encode — the error is already recorded) as dropped, so the
// LoadGen counts it and invalidates the run instead of treating a payloadless
// response as answered.
func markDropped(responses []loadgen.Response) []loadgen.Response {
	for i := range responses {
		if responses[i].Data == nil {
			responses[i].Dropped = true
		}
	}
	return responses
}

// encodeOutput serializes one prediction, recording (and nil-ing) failures.
func (n *Native) encodeOutput(out model.Output, index int) []byte {
	data, err := out.Encode()
	if err != nil {
		n.errs.add(fmt.Errorf("backend %s: encoding sample %d: %w", n.cfg.Name, index, err))
		return nil
	}
	return data
}

// FlushQueries implements loadgen.SUT; the native backend has no internal
// batching so there is nothing to flush.
func (n *Native) FlushQueries() {}

// Wait blocks until all in-flight inference finishes. The harness calls it
// after the LoadGen reports completion so error collection is complete.
func (n *Native) Wait() { n.wg.Wait() }

// Errors returns inference errors observed during the run.
func (n *Native) Errors() []error { return n.errs.all() }
