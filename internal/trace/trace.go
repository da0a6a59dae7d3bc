// Package trace is a low-overhead span subsystem that follows sampled
// requests across the serving process boundary.
//
// A request gets a trace ID stamped by the client router at issue time and
// carried to the server in the predict frame (see internal/serve); both
// sides record fixed-slot stage durations — the client its issue, connection
// acquire, write, await and decode phases, the server its admit, queue wait,
// batch assembly, service, encode and reply phases — into per-model
// lock-free ring buffers. Two capture policies compose:
//
//   - Head sampling: one request in every Config.SampleEvery is traced end
//     to end (trace ID on the wire, all slots measured on both sides).
//   - Tail capture: every request's end-to-end latency feeds a streaming
//     p99 estimate, and any request landing at or beyond the current p99
//     is retained regardless of the sampling coin, so the traces that
//     explain a latency-bound run's validity are never lost to the coin.
//
// Retained records export three ways: a Chrome trace-event JSON dump
// (WriteChrome) that opens directly in Perfetto, per-stage latency
// histogram families for a Prometheus scrape (WritePrometheus), and a
// tail-attribution report (Attribute) that classifies ≥p99 traces as
// queue-, service- or wire-dominated.
//
// The tracer is safe for concurrent use from every serving goroutine. With
// a nil *Tracer every hook is a no-op; with tracing enabled the unsampled
// path costs one atomic increment plus one tail-histogram update per
// request.
package trace

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Stage indexes one fixed span slot in a Record. Client-side stages cover
// the request's life in backend.Remote; server-side stages cover its life
// in serve.Server. A single traced request yields client slots measured by
// the client and server slots measured by the server and folded into the
// client's record from the response frame's span block.
type Stage int

const (
	// StageIssue: loadgen hand-off until the router starts sending
	// (scheduling, replica choice bookkeeping).
	StageIssue Stage = iota
	// StageAcquire: waiting for an in-flight window slot and a live
	// connection.
	StageAcquire
	// StageWrite: encoding and flushing the request frame onto the socket.
	StageWrite
	// StageAwait: from flush until the reader goroutine picks up the
	// response frame (wire + server time).
	StageAwait
	// StageDecode: decoding the response and settling it with the loadgen.
	StageDecode

	// StageAdmit: socket read-off until the request enters the admission
	// queue.
	StageAdmit
	// StageQueue: waiting in the admission queue for the batcher.
	StageQueue
	// StageAssembly: from batch take until the batch begins service.
	StageAssembly
	// StageService: inference (the request's share is its batch's run).
	StageService
	// StageEncode: encoding the model output into the response payload.
	StageEncode
	// StageReply: writing the response frame back onto the socket.
	StageReply

	// NumStages is the number of fixed span slots in a Record.
	NumStages
)

// stageNames are the wire/export names, indexed by Stage.
var stageNames = [NumStages]string{
	"issue", "acquire", "write", "await", "decode",
	"admit", "queue", "assembly", "service", "encode", "reply",
}

// String returns the stage's export name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Origin says which side of the wire recorded a Record.
type Origin uint8

const (
	// OriginClient: recorded by backend.Remote.
	OriginClient Origin = iota
	// OriginServer: recorded by serve.Server.
	OriginServer
)

// String returns the origin's export name.
func (o Origin) String() string {
	if o == OriginServer {
		return "server"
	}
	return "client"
}

// Record is one retained request trace. Stage slots hold durations in
// nanoseconds; a zero slot means the stage was not measured (an untraced
// tail-captured request carries only its end-to-end latency and, on the
// server side, its queue/service split).
type Record struct {
	// TraceID is the wire-propagated id for head-sampled requests, 0 for
	// requests retained by tail capture alone.
	TraceID uint64
	// Model names the engine the request addressed.
	Model string
	// Origin is the side that recorded this record.
	Origin Origin
	// Start is the record's wall-clock start (UnixNano): issue time for
	// client records, request receipt for server records.
	Start int64
	// End2End is the request's total latency in nanoseconds as seen by
	// Origin (client: issue → settle; server: receipt → reply written).
	End2End int64
	// Tail marks a record retained because End2End landed at or beyond the
	// tracker's p99 estimate at observation time.
	Tail bool
	// HasServer marks a client record whose server slots were folded in
	// from the response frame's span block.
	HasServer bool
	// ServerStart is the server's receipt wall clock (UnixNano) when
	// HasServer is set, 0 otherwise. Client and server share a clock on a
	// loopback deployment; across machines it is the server's own clock.
	ServerStart int64
	// Stages holds per-stage durations in nanoseconds.
	Stages [NumStages]int64
}

// ServerNanos returns the summed server-side stage durations.
func (r *Record) ServerNanos() int64 {
	var total int64
	for s := StageAdmit; s <= StageReply; s++ {
		total += r.Stages[s]
	}
	return total
}

// ClientNanos returns the summed client-side stage durations.
func (r *Record) ClientNanos() int64 {
	var total int64
	for s := StageIssue; s <= StageDecode; s++ {
		total += r.Stages[s]
	}
	return total
}

// WireSpans is the server-measured span block carried back to the client in
// a predict response frame. Durations are nanoseconds. The reply stage is absent
// by construction: the server cannot know the response write's duration
// before writing it, so reply lands only in the server's own ring.
type WireSpans struct {
	// RecvUnixNano is the server's receipt wall clock.
	RecvUnixNano int64
	// Admit, Queue, Assembly, Service, Encode are the server stage
	// durations up to (not including) the response write.
	Admit, Queue, Assembly, Service, Encode int64
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleEvery is the head-sampling period: one request in every
	// SampleEvery gets a trace ID and full span capture. Values below 1
	// mean every request. The tail-capture path is independent of this
	// coin and always on.
	SampleEvery int
	// RingSize is the per-model retained-record ring capacity, rounded up
	// to a power of two. 0 means a 4096-record default.
	RingSize int
}

// defaultRingSize bounds per-model retained records when Config.RingSize is
// zero: 4096 records ≈ a few hundred KiB per model.
const defaultRingSize = 4096

// Tracer allocates trace IDs, flips the sampling coin and owns the
// per-model rings, tail trackers and stage histograms. A nil *Tracer is a
// valid no-op tracer.
type Tracer struct {
	sampleEvery uint64
	ringSize    int

	seq atomic.Uint64

	mu     sync.RWMutex
	models map[string]*ModelTrace
}

// New builds a Tracer. See Config for knob semantics.
func New(cfg Config) *Tracer {
	every := cfg.SampleEvery
	if every < 1 {
		every = 1
	}
	size := cfg.RingSize
	if size <= 0 {
		size = defaultRingSize
	}
	// Round up to a power of two so ring indexing is a mask.
	size = 1 << bits.Len(uint(size-1))
	return &Tracer{
		sampleEvery: uint64(every),
		ringSize:    size,
		models:      make(map[string]*ModelTrace),
	}
}

// SampleEvery reports the head-sampling period (0 for a nil tracer).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleEvery)
}

// Issue allocates the next request's trace identity: a non-zero trace ID
// when the sampling coin lands on this request, 0 otherwise. On a nil
// tracer it returns 0 (never sampled).
func (t *Tracer) Issue() uint64 {
	if t == nil {
		return 0
	}
	n := t.seq.Add(1)
	if n%t.sampleEvery != 0 {
		return 0
	}
	return n
}

// Model returns the per-model trace state, creating it on first use. Call
// sites on hot paths should cache the result. Returns nil on a nil tracer.
func (t *Tracer) Model(name string) *ModelTrace {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	mt := t.models[name]
	t.mu.RUnlock()
	if mt != nil {
		return mt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if mt = t.models[name]; mt != nil {
		return mt
	}
	mt = newModelTrace(name, t.ringSize)
	t.models[name] = mt
	return mt
}

// Records snapshots every model's retained records, oldest first within
// each model. The copy is safe to hold while tracing continues.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	names := make([]string, 0, len(t.models))
	for name := range t.models {
		names = append(names, name)
	}
	t.mu.RUnlock()
	sortStrings(names)
	var out []Record
	for _, name := range names {
		out = append(out, t.Model(name).Snapshot()...)
	}
	return out
}

// sortStrings is an insertion sort: model counts are tiny and this keeps
// the package dependency-free.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ModelTrace holds one model's retained-record ring, tail tracker and
// per-stage histograms. All methods are safe for concurrent use and a nil
// receiver is a no-op.
type ModelTrace struct {
	name string
	ring ring
	tail tailTracker
	hist stageHistograms
}

func newModelTrace(name string, ringSize int) *ModelTrace {
	mt := &ModelTrace{name: name}
	mt.ring.init(ringSize)
	return mt
}

// Name returns the model name this state belongs to.
func (m *ModelTrace) Name() string {
	if m == nil {
		return ""
	}
	return m.name
}

// Observe feeds one request's end-to-end latency into the tail tracker and
// the end-to-end histogram, and reports whether the request qualifies for
// tail capture (it landed at or beyond the current p99 estimate). Call for
// every request, sampled or not.
func (m *ModelTrace) Observe(e2eNanos int64) bool {
	if m == nil {
		return false
	}
	m.hist.observeEnd2End(e2eNanos)
	return m.tail.observe(e2eNanos)
}

// TailThreshold returns the current p99 capture threshold in nanoseconds
// (0 until enough observations have accumulated to establish one).
func (m *ModelTrace) TailThreshold() int64 {
	if m == nil {
		return 0
	}
	return m.tail.threshold.Load()
}

// Publish retains a record in the ring and folds its measured stage
// durations into the per-stage histograms.
func (m *ModelTrace) Publish(rec *Record) {
	if m == nil || rec == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		if d := rec.Stages[s]; d > 0 {
			m.hist.observeStage(s, d)
		}
	}
	m.ring.put(rec)
}

// Snapshot copies the ring's retained records, oldest first.
func (m *ModelTrace) Snapshot() []Record {
	if m == nil {
		return nil
	}
	return m.ring.snapshot()
}

// ring is a lock-free bounded record buffer: an atomic cursor picks the
// slot, an atomic pointer store publishes the record. Writers never block
// and never tear (a slot transition is one pointer swap); readers see each
// slot either empty, old or new — never mixed. Records are allocated by the
// producer, so at sampling rates like 1/64 the allocation cost is noise.
type ring struct {
	slots  []atomic.Pointer[Record]
	cursor atomic.Uint64
	mask   uint64
}

func (r *ring) init(size int) {
	r.slots = make([]atomic.Pointer[Record], size)
	r.mask = uint64(size - 1)
}

func (r *ring) put(rec *Record) {
	i := r.cursor.Add(1) - 1
	r.slots[i&r.mask].Store(rec)
}

func (r *ring) snapshot() []Record {
	n := r.cursor.Load()
	size := uint64(len(r.slots))
	start := uint64(0)
	count := n
	if n > size {
		start = n - size
		count = size
	}
	out := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		if rec := r.slots[(start+i)&r.mask].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}

// tailTracker keeps a streaming p99 estimate over end-to-end latencies
// using quarter-octave buckets: each power-of-two range is split into four
// sub-buckets (≈19% wide), so the estimate tracks the true p99 even when
// the whole distribution sits inside one octave — plain power-of-two
// buckets would then put the p99's lower bound below the median and flag
// most of the run as "tail". The estimate is the lower bound of the bucket
// holding the 99th percentile, refreshed every tailRecompute observations —
// cheap, lock free, and conservative in the right direction: a request at
// or beyond the estimate is at or beyond the true p99's bucket.
type tailTracker struct {
	buckets   [tailBuckets]atomic.Uint64
	count     atomic.Uint64
	threshold atomic.Int64
}

// tailBuckets covers 65 octaves (the full int64 nanosecond range, plus a
// zero bucket) at four sub-buckets each.
const tailBuckets = 65 * 4

// tailRecompute is how many observations pass between threshold refreshes.
const tailRecompute = 256

// tailMinSamples is how many observations must accumulate before tail
// capture arms; below it every request would trivially be "the tail".
const tailMinSamples = 128

// tailBucket maps a latency to its quarter-octave bucket index. Octave o
// (values in [2^(o-1), 2^o)) contributes buckets 4o..4o+3, split on the two
// mantissa bits below the leading one.
func tailBucket(nanos int64) int {
	u := uint64(nanos)
	o := bits.Len64(u) // 0 for 0; else floor(log2(u))+1
	if o < 3 {
		// Octaves too narrow to quarter (0, 1, 2, [4,8) has sub-bucket
		// width <1ns for the first two): use their base bucket alone.
		return o * 4
	}
	sub := (u >> (o - 3)) & 3
	return o*4 + int(sub)
}

// tailBucketFloor is the inverse: the smallest latency landing in bucket i.
func tailBucketFloor(i int) int64 {
	o, sub := i/4, int64(i%4)
	if o == 0 {
		return 0
	}
	if o < 3 {
		return int64(1) << (o - 1)
	}
	return (4 + sub) << (o - 3)
}

func (t *tailTracker) observe(nanos int64) bool {
	if nanos < 0 {
		nanos = 0
	}
	t.buckets[tailBucket(nanos)].Add(1)
	n := t.count.Add(1)
	if n >= tailMinSamples && n%tailRecompute == 0 {
		t.recompute()
	}
	thr := t.threshold.Load()
	return thr > 0 && nanos >= thr
}

func (t *tailTracker) recompute() {
	var counts [tailBuckets]uint64
	var total uint64
	for i := range t.buckets {
		counts[i] = t.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return
	}
	// Rank of the p99 observation (1-based); walk buckets up to it.
	rank := (total*99 + 99) / 100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			thr := tailBucketFloor(i)
			if thr < 1 {
				thr = 1
			}
			t.threshold.Store(thr)
			return
		}
	}
}
