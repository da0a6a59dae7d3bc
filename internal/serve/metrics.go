package serve

import (
	"sort"
	"sync"
	"time"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// latencyWindowSize is how many recent latency observations each percentile
// window retains. A power-of-two ring keeps long runs O(1) in memory while
// p50/p99 reflect current behavior rather than the whole run's history.
const latencyWindowSize = 1 << 14

// batchBuckets are the upper bounds of the batch-size histogram ("≤ bound");
// the final implicit bucket is unbounded.
var batchBuckets = []int{1, 2, 4, 8, 16, 32, 64}

// serverMetrics accumulates the serving-side observability state. All methods
// are safe for concurrent use.
type serverMetrics struct {
	mu sync.Mutex

	admitted  uint64
	rejected  uint64
	shed      uint64
	expired   uint64
	errored   uint64
	completed uint64
	flushes   uint64

	batchCounts []uint64 // len(batchBuckets)+1, last bucket = overflow

	queue   latencyWindow
	service latencyWindow

	// snapMu serializes snapshot assembly and guards the scratch buffers
	// below. Scrapers contend only with each other: the serving path's mu is
	// held just long enough to copy the rings out, and the O(n log n) sort
	// runs outside it, so a slow scrape never stalls request completion.
	snapMu       sync.Mutex
	scratchQueue []time.Duration
	scratchSvc   []time.Duration
}

// latencyWindow is a fixed-capacity ring of recent duration observations.
type latencyWindow struct {
	buf  []time.Duration
	next int
	n    int
}

func (w *latencyWindow) add(d time.Duration) {
	if w.buf == nil {
		w.buf = make([]time.Duration, latencyWindowSize)
	}
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// copyInto copies the retained observations into scratch (growing it if
// needed) and returns the filled prefix. Call with the owning metrics lock
// held; the returned slice aliases scratch, not the ring.
func (w *latencyWindow) copyInto(scratch []time.Duration) []time.Duration {
	if cap(scratch) < w.n {
		scratch = make([]time.Duration, w.n)
	}
	scratch = scratch[:w.n]
	copy(scratch, w.buf[:w.n])
	return scratch
}

// percentilesOf returns the nearest-rank p50 and p99 of a sample set, sorting
// it in place. It takes an already-copied slice, so callers sort outside the
// lock that guards the ring.
func percentilesOf(samples []time.Duration) (p50, p99 time.Duration) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return stats.NearestRank(samples, 0.50), stats.NearestRank(samples, 0.99)
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{batchCounts: make([]uint64, len(batchBuckets)+1)}
}

func (m *serverMetrics) addAdmitted() {
	m.mu.Lock()
	m.admitted++
	m.mu.Unlock()
}

func (m *serverMetrics) addRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *serverMetrics) addShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

func (m *serverMetrics) addExpired(n int) {
	m.mu.Lock()
	m.expired += uint64(n)
	m.mu.Unlock()
}

func (m *serverMetrics) addErrored() {
	m.mu.Lock()
	m.errored++
	m.mu.Unlock()
}

func (m *serverMetrics) addFlush() {
	m.mu.Lock()
	m.flushes++
	m.mu.Unlock()
}

// observeBatch records one dispatched batch's size.
func (m *serverMetrics) observeBatch(size int) {
	m.mu.Lock()
	i := 0
	for i < len(batchBuckets) && size > batchBuckets[i] {
		i++
	}
	m.batchCounts[i]++
	m.mu.Unlock()
}

// observeService records one served request's queue and service latencies.
func (m *serverMetrics) observeService(queued, service time.Duration) {
	m.mu.Lock()
	m.completed++
	m.queue.add(queued)
	m.service.add(service)
	m.mu.Unlock()
}

// DownInterval is one client-observed replica outage: the span between a
// replica losing its last live connection and its re-join through the probe
// handshake and reopen barrier. A zero End marks a replica still down when
// the snapshot was taken.
type DownInterval struct {
	// Replica is the replica's index in the client's address list.
	Replica int `json:"replica"`
	// Addr is the replica's dial address.
	Addr string `json:"addr,omitempty"`
	// Start is when the replica was marked down.
	Start time.Time `json:"start"`
	// End is when the replica rejoined (zero while still down).
	End time.Time `json:"end,omitempty"`
}

// Duration returns the interval's length, or how long the replica has been
// down as of now for a still-open interval.
func (d DownInterval) Duration() time.Duration {
	if d.End.IsZero() {
		return time.Since(d.Start)
	}
	return d.End.Sub(d.Start)
}

// RecoveryStats is the client-side fault-tolerance record backend.Remote
// attaches to merged snapshots: what went down, for how long, and how the
// fleet absorbed it. Server-side snapshots leave it nil.
type RecoveryStats struct {
	// DownIntervals lists every replica outage observed, in the order the
	// replicas went down. An interval with a zero End is still open.
	DownIntervals []DownInterval `json:"down_intervals,omitempty"`
	// Rejoins counts replicas readmitted to routing after an outage: probed
	// healthy on a fresh connection and re-armed through the reopen barrier.
	// It always equals the number of closed DownIntervals.
	Rejoins int `json:"rejoins"`
	// ConnRedials counts individual connections successfully re-established
	// (including those whose replica never went fully down).
	ConnRedials int64 `json:"conn_redials"`
	// Retries counts requests re-routed to another live connection after a
	// transport failure, whether or not the retry ultimately succeeded.
	Retries int64 `json:"retries"`
	// TransportDrops counts requests settled as dropped because every
	// failover attempt was exhausted — the only drops not explained by a
	// server-side reject or expiry.
	TransportDrops int64 `json:"transport_drops"`
}

// merge folds another recovery record into this one (interval lists
// concatenate, counters sum).
func (r *RecoveryStats) merge(o *RecoveryStats) {
	if o == nil {
		return
	}
	r.DownIntervals = append(r.DownIntervals, o.DownIntervals...)
	r.Rejoins += o.Rejoins
	r.ConnRedials += o.ConnRedials
	r.Retries += o.Retries
	r.TransportDrops += o.TransportDrops
}

// BatchBucket is one batch-size histogram bucket in a Snapshot.
type BatchBucket struct {
	// Le is the bucket's inclusive upper bound; 0 marks the unbounded
	// overflow bucket.
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot is a point-in-time view of serving metrics for one hosted model —
// or, after MergeSnapshots, for a set of models or replicas — returned over
// the wire for the report (MsgMetrics) and by Server.Metrics.
type Snapshot struct {
	// Model is the hosted model id the snapshot covers ("" for the default
	// model and for merged snapshots).
	Model string `json:"model,omitempty"`
	// Error is set instead of metrics when a model-addressed request could
	// not be resolved (unknown model id) — the request is still answered, so
	// a misaddressed client learns its mistake rather than losing the
	// connection.
	Error string `json:"error,omitempty"`
	// Merged counts how many per-model or per-replica snapshots were folded
	// into this one (0 for a direct, single-host snapshot).
	Merged int `json:"merged,omitempty"`
	// QueueDepth is the admission queue's population at snapshot time.
	QueueDepth int `json:"queue_depth"`
	// Admitted counts requests accepted into the queue.
	Admitted uint64 `json:"admitted"`
	// Completed counts requests served to completion (any terminal status
	// after dispatch, including per-sample errors).
	Completed uint64 `json:"completed"`
	// Rejected counts arrivals turned away by admission control without
	// ever entering the queue (tail drop).
	Rejected uint64 `json:"rejected"`
	// Shed counts admitted requests later evicted by the ShedOldest policy,
	// so the counters reconcile: Admitted = Completed + Expired + Errors +
	// Shed + QueueDepth (at snapshot time, modulo in-flight batches).
	Shed uint64 `json:"shed"`
	// Expired counts requests whose deadline passed while queued.
	Expired uint64 `json:"expired"`
	// Errors counts requests that failed to load, infer or encode.
	Errors uint64 `json:"errors"`
	// Flushes counts end-of-series flushes observed.
	Flushes uint64 `json:"flushes"`
	// BatchHistogram is the dispatched batch-size distribution.
	BatchHistogram []BatchBucket `json:"batch_histogram"`
	// QueueP50/P99 summarize time spent in the admission queue; ServiceP50/
	// P99 summarize inference + encode + response write. Both cover the most
	// recent latencyWindowSize requests.
	QueueP50   time.Duration `json:"queue_p50_ns"`
	QueueP99   time.Duration `json:"queue_p99_ns"`
	ServiceP50 time.Duration `json:"service_p50_ns"`
	ServiceP99 time.Duration `json:"service_p99_ns"`
	// Workers and MaxBatch are the model's configured limits.
	Workers  int `json:"workers"`
	MaxBatch int `json:"max_batch"`
	// QueueLimit is the admission queue's configured bound (merged snapshots
	// sum it, like QueueDepth).
	QueueLimit int `json:"queue_limit,omitempty"`
	// Recovery carries the client-observed fault-tolerance record (down/up
	// intervals, rejoins, redials, failover retries). backend.Remote
	// populates it on the snapshots it returns; snapshots taken server-side
	// leave it nil — a server cannot see its own outages.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// Kernel is the replica's compute-kernel configuration at snapshot time:
	// the SIMD dispatch tier (off/avx2/fma) and the live tuning-knob values,
	// plus whether a calibration pass produced them. It makes a fleet's
	// kernel setup auditable — a replica silently running the scalar fallback
	// (wrong env, exotic CPU) shows up right in the metrics scrape. Merged
	// snapshots keep the first non-nil value (replicas of one deployment run
	// the same binary and environment).
	Kernel *tensor.KernelConfig `json:"kernel,omitempty"`
}

// snapshot assembles a Snapshot; queueDepth is sampled by the caller, which
// owns the queue lock. The serving-path lock m.mu is held only for the O(n)
// counter-and-ring copy; the percentile sorts run under snapMu on reused
// scratch buffers, so concurrent scrapers neither stall request completion
// nor allocate a fresh window copy per scrape.
func (m *serverMetrics) snapshot(queueDepth, workers, maxBatch, queueLimit int) Snapshot {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	m.mu.Lock()
	s := Snapshot{
		QueueDepth: queueDepth,
		Admitted:   m.admitted,
		Completed:  m.completed,
		Rejected:   m.rejected,
		Shed:       m.shed,
		Expired:    m.expired,
		Errors:     m.errored,
		Flushes:    m.flushes,
		Workers:    workers,
		MaxBatch:   maxBatch,
		QueueLimit: queueLimit,
	}
	s.BatchHistogram = make([]BatchBucket, 0, len(m.batchCounts))
	for i, count := range m.batchCounts {
		bucket := BatchBucket{Count: count}
		if i < len(batchBuckets) {
			bucket.Le = batchBuckets[i]
		}
		s.BatchHistogram = append(s.BatchHistogram, bucket)
	}
	m.scratchQueue = m.queue.copyInto(m.scratchQueue)
	m.scratchSvc = m.service.copyInto(m.scratchSvc)
	m.mu.Unlock()

	s.QueueP50, s.QueueP99 = percentilesOf(m.scratchQueue)
	s.ServiceP50, s.ServiceP99 = percentilesOf(m.scratchSvc)
	return s
}

// MergeSnapshots folds several per-model or per-replica snapshots into one
// aggregate view: counters, queue depths/limits and batch histograms sum;
// worker counts sum (total service parallelism); MaxBatch takes the largest;
// latency percentiles take the worst (max) across inputs — the conservative
// merge, since a latency bound must hold on every shard. An empty input
// yields the zero Snapshot.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	if len(snaps) == 0 {
		return out
	}
	maxDur := func(a, b time.Duration) time.Duration {
		if a > b {
			return a
		}
		return b
	}
	for _, s := range snaps {
		out.QueueDepth += s.QueueDepth
		out.QueueLimit += s.QueueLimit
		out.Admitted += s.Admitted
		out.Completed += s.Completed
		out.Rejected += s.Rejected
		out.Shed += s.Shed
		out.Expired += s.Expired
		out.Errors += s.Errors
		out.Flushes += s.Flushes
		out.Workers += s.Workers
		if s.MaxBatch > out.MaxBatch {
			out.MaxBatch = s.MaxBatch
		}
		out.QueueP50 = maxDur(out.QueueP50, s.QueueP50)
		out.QueueP99 = maxDur(out.QueueP99, s.QueueP99)
		out.ServiceP50 = maxDur(out.ServiceP50, s.ServiceP50)
		out.ServiceP99 = maxDur(out.ServiceP99, s.ServiceP99)
		for _, b := range s.BatchHistogram {
			merged := false
			for i := range out.BatchHistogram {
				if out.BatchHistogram[i].Le == b.Le {
					out.BatchHistogram[i].Count += b.Count
					merged = true
					break
				}
			}
			if !merged {
				out.BatchHistogram = append(out.BatchHistogram, b)
			}
		}
		if s.Merged > 0 {
			out.Merged += s.Merged
		} else {
			out.Merged++
		}
		if s.Recovery != nil {
			if out.Recovery == nil {
				out.Recovery = &RecoveryStats{}
			}
			out.Recovery.merge(s.Recovery)
		}
		if out.Kernel == nil && s.Kernel != nil {
			kc := *s.Kernel
			out.Kernel = &kc
		}
	}
	return out
}
