// Package serve is the suite's network serving subsystem: a production-style
// inference server that exposes model.Engines over a loopback TCP socket, so
// every LoadGen scenario can run across a real network boundary — with
// queueing, serialization and connection concurrency on the measured path —
// instead of an in-process function call.
//
// One Server hosts one or more named engines (several models behind one
// listener, each with its own admission queue, dynamic batcher and worker
// pool), and each hosted model owns the three mechanisms that bound achieved
// QPS in a real datacenter submission (the phenomena the paper's Server
// scenario exists to measure):
//
//   - Admission control: a bounded FIFO queue with a configurable overload
//     policy. RejectNewest turns away arrivals when the queue is full;
//     ShedOldest drops the queue head (the request most likely to already be over
//     its deadline) to admit the newcomer. Either way the shed request is
//     answered immediately with StatusRejected — overload is reported, never
//     silent — and per-request deadlines expire queued requests before they
//     waste service time.
//
//   - Dynamic batching: queued requests coalesce into one batched
//     Engine.Predict call, up to MaxBatch within a BatchWait window. MsgFlush
//     marks the end of the query series: everything buffered goes out now and
//     the batcher switches to pass-through, so stragglers are not held
//     hostage by an armed timer; MsgReopen re-arms it for the next run.
//
//   - A worker pool: N workers drain batches concurrently through the
//     engine's pooled scratch-arena inference path, so service parallelism
//     and batch formation are decoupled.
//
// Observability is part of the contract: each model tracks queue depth, a
// dispatched-batch-size histogram, queue/service latency percentiles and
// reject/expire counts, served per model or merged across models as a
// Snapshot over the wire (MsgMetrics) for the benchmark report.
//
// Lifecycle is three-way: Drain gracefully retires the server (stop
// admitting, answer everything queued, keep answering health probes — with
// ProbeDraining, so a fault-tolerant client will not re-join it), Close
// drains then tears down, and Kill simulates a crash (listener and every
// connection die immediately, queued work is abandoned) for fault-injection
// tests. The MsgProbe frame is the health-check handshake clients run on a
// fresh connection before readmitting a recovered server to routing.
//
// The LoadGen-facing client lives in backend.Remote, which implements
// loadgen.SUT over this package's protocol and can fan one SUT out over a
// replica set of Servers; see protocol.go for the wire format.
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/model"
	"mlperf/internal/tensor"
	"mlperf/internal/trace"
)

// OverloadPolicy selects what admission control does when the queue is full.
type OverloadPolicy int

const (
	// PolicyDefault (the zero value) inherits the surrounding default: a
	// ModelConfig inherits the server-wide Config.Policy, and a Config
	// resolves to RejectNewest. This keeps the zero value meaningful while
	// letting a model explicitly pick either policy against any server-wide
	// setting.
	PolicyDefault OverloadPolicy = iota
	// RejectNewest answers the arriving request with StatusRejected and
	// leaves the queue untouched (classic tail drop).
	RejectNewest
	// ShedOldest rejects the queue head — the request that has waited
	// longest and is most likely past saving — and admits the newcomer.
	ShedOldest
)

// String returns the policy's CLI name.
func (p OverloadPolicy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case RejectNewest:
		return "reject"
	case ShedOldest:
		return "shed-oldest"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a CLI policy name.
func ParsePolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "reject", "":
		return RejectNewest, nil
	case "shed-oldest":
		return ShedOldest, nil
	default:
		return 0, fmt.Errorf("serve: unknown overload policy %q (want reject or shed-oldest)", s)
	}
}

// ModelConfig configures one named engine hosted by a Server. Zero-valued
// knobs inherit the Server Config's corresponding field.
type ModelConfig struct {
	// Name is the model id request frames address; required, unique within
	// the server, at most 255 bytes.
	Name string
	// Engine runs this model's inference; required.
	Engine model.Engine
	// Store resolves this model's sample indexes (defaults to Config.Store).
	Store dataset.Store
	// Workers, QueueDepth, Policy, MaxBatch and BatchWait override the
	// server-wide defaults for this model (see Config for semantics).
	// PolicyDefault inherits Config.Policy.
	Workers    int
	QueueDepth int
	Policy     OverloadPolicy
	MaxBatch   int
	BatchWait  time.Duration
}

// Config configures a Server.
type Config struct {
	// Engine runs the inference for the server's default (unnamed) model.
	// Either Engine or at least one Models entry is required; when both are
	// set, Engine is hosted alongside the named models and answers frames
	// that carry no model id.
	Engine model.Engine
	// Store resolves the sample indexes arriving over the wire; required for
	// the default model and the fallback for Models entries without one. Like
	// the reference LoadGen's QSL, the data set is resident on the serving
	// side before the timed run.
	Store dataset.Store
	// Models lists additional named engines hosted behind this listener, each
	// with its own admission queue, batcher and worker pool. Predict frames
	// route by model id. When exactly one model is hosted in total, frames
	// without a model id route to it; with several and no default Engine,
	// such predict frames answer StatusError.
	Models []ModelConfig
	// Addr is the listen address; it defaults to "127.0.0.1:0" (loopback,
	// kernel-assigned port — read the bound address back with Addr).
	Addr string
	// Workers is the per-model inference worker count; it defaults to
	// runtime.GOMAXPROCS(0) floored at 2, matching backend.Native. Workers,
	// QueueDepth and MaxBatch (here and on each ModelConfig) must lie in
	// [0, 1<<16], zero deriving the default, and stay fixed while the server
	// runs.
	Workers int
	// QueueDepth bounds each model's admission queue (default 1024). Arrivals
	// beyond it are shed according to Policy.
	QueueDepth int
	// Policy is the overload policy (default RejectNewest).
	Policy OverloadPolicy
	// MaxBatch caps a dispatched batch. It defaults to the engine's derived
	// micro-batch (model.BatchSizer) so dynamic batching feeds the batched
	// kernels exactly the size their cache residency was derived for, or 8
	// when the engine does not publish one.
	MaxBatch int
	// BatchWait is how long the dispatcher holds an under-full batch open
	// for stragglers (default 2ms). After an end-of-series flush it is
	// ignored (pass-through) until reopen.
	BatchWait time.Duration
	// WrapListener, when set, wraps the bound listener before the accept
	// loop starts. It exists for fault injection (internal/chaos wraps the
	// listener so accepted connections can sever, delay, truncate or corrupt
	// frames on a seeded schedule) and keeps this package free of any
	// dependency on the injector.
	WrapListener func(net.Listener) net.Listener
	// MetricsAddr, when set, binds an HTTP listener serving the Prometheus
	// text exposition of every hosted model's metrics at /metrics (use
	// "127.0.0.1:0" for a kernel-assigned port, read back with MetricsAddr).
	// External scrapers see exactly the counters the wire-protocol metrics
	// frames and audit.CheckServing reconcile. Empty disables the endpoint.
	MetricsAddr string
	// Tracer, when set, records server-side spans (admit, queue wait, batch
	// assembly, service, encode, reply) for requests arriving with a wire
	// trace id, tail-captures outlier requests regardless of sampling, and
	// exposes the retained records at /debug/trace on the metrics listener.
	// Nil disables all span recording at zero cost.
	Tracer *trace.Tracer
	// EnablePprof mounts net/http/pprof's profile handlers (/debug/pprof/*)
	// on the metrics listener, so a live server's CPU, heap, goroutine and
	// block profiles are reachable without a rebuild. Requires MetricsAddr.
	EnablePprof bool
}

// maxLimit is the ceiling on Workers, QueueDepth and MaxBatch, a guard
// against nonsense rather than a tuning knob.
const maxLimit = 1 << 16

// checkLimits rejects a Workers, QueueDepth or MaxBatch outside [0, maxLimit]
// (zero means "derive the default").
func checkLimits(model string, workers, queueDepth, maxBatch int) error {
	for _, v := range [...]int{workers, queueDepth, maxBatch} {
		if v < 0 || v > maxLimit {
			return fmt.Errorf("serve: model %q limit %d out of range [0, %d]", model, v, maxLimit)
		}
	}
	return nil
}

// normalize validates the config and expands it into one ModelConfig per
// hosted engine (the default model keeps the empty name).
func (c *Config) normalize() ([]ModelConfig, error) {
	if c.Engine == nil && len(c.Models) == 0 {
		return nil, fmt.Errorf("serve: config needs an Engine or at least one Models entry")
	}
	if err := checkLimits("", c.Workers, c.QueueDepth, c.MaxBatch); err != nil {
		return nil, err
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}

	for _, m := range c.Models {
		if m.Name == "" {
			return nil, fmt.Errorf("serve: Models entries need a Name")
		}
	}
	var models []ModelConfig
	if c.Engine != nil {
		models = append(models, ModelConfig{Name: "", Engine: c.Engine, Store: c.Store})
	}
	models = append(models, c.Models...)
	seen := make(map[string]bool, len(models))
	for i := range models {
		m := &models[i]
		if m.Engine == nil {
			return nil, fmt.Errorf("serve: model %q needs an Engine", m.Name)
		}
		if err := checkLimits(m.Name, m.Workers, m.QueueDepth, m.MaxBatch); err != nil {
			return nil, err
		}
		if len(m.Name) > maxModelIDLen {
			return nil, fmt.Errorf("serve: model id %q is %d bytes, limit %d", m.Name, len(m.Name), maxModelIDLen)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("serve: duplicate model id %q", m.Name)
		}
		seen[m.Name] = true
		if m.Store == nil {
			m.Store = c.Store
		}
		if m.Store == nil {
			return nil, fmt.Errorf("serve: model %q needs a sample Store", m.Name)
		}
		if m.Workers <= 0 {
			m.Workers = c.Workers
		}
		if m.QueueDepth <= 0 {
			m.QueueDepth = c.QueueDepth
		}
		if m.Policy == PolicyDefault {
			m.Policy = c.Policy
		}
		if m.Policy == PolicyDefault {
			m.Policy = RejectNewest
		}
		if m.MaxBatch <= 0 {
			m.MaxBatch = c.MaxBatch
		}
		if m.MaxBatch <= 0 {
			if bs, ok := m.Engine.(model.BatchSizer); ok {
				m.MaxBatch = bs.PreferredBatch()
			}
			if m.MaxBatch <= 0 {
				m.MaxBatch = 8
			}
		}
		if m.BatchWait <= 0 {
			m.BatchWait = c.BatchWait
		}
	}
	return models, nil
}

// request is one admitted predict request flowing queue → batch → worker.
type request struct {
	id       uint64
	index    int
	deadline time.Time
	enqueued time.Time
	conn     *serverConn
	// tr is non-nil only when the request arrived with a wire trace id AND
	// the server has a tracer: the head-sampled path. Everything else pays
	// no per-request tracing cost beyond one nil check.
	tr *reqTrace
}

// reqTrace accumulates one head-sampled request's server-side stage
// timings as it flows admit → queue → batch → worker → response. It is
// touched by one goroutine at a time (the request moves between
// goroutines over channels, which order the accesses).
type reqTrace struct {
	id      uint64
	arrived time.Time // socket read-off (StageAdmit starts here)
	taken   time.Time // popped from the admission queue by the dispatcher
	service int64     // the batch's Engine.Predict duration, ns
	encode  int64     // this request's Output.Encode duration, ns
	// spans is the block carried back to the client in the traced
	// response; built on the success path, nil for rejected/expired/error
	// answers (the client then simply gets no server decomposition).
	spans *trace.WireSpans
}

// respWriteTimeout bounds every response write. A client that stops reading
// its socket (full kernel buffer) must not wedge a worker — after the
// deadline the write fails, the connection is closed (so its reader exits and
// later writes fail fast) and the worker moves on.
const respWriteTimeout = 10 * time.Second

// serverConn serializes response frames onto one accepted connection.
type serverConn struct {
	c   net.Conn
	wmu sync.Mutex
	w   *bufio.Writer
}

// writeRawFrame writes and flushes one pre-assembled frame (header included)
// as a single contiguous write; concurrent workers serialize here. A failed
// or timed-out write poisons the connection deliberately.
func (sc *serverConn) writeRawFrame(frame []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.c.SetWriteDeadline(time.Now().Add(respWriteTimeout))
	_, err := sc.w.Write(frame)
	if err == nil {
		err = sc.w.Flush()
	}
	if err != nil {
		sc.c.Close()
		return err
	}
	return nil
}

// engineHost is one hosted model's serving machinery: admission queue,
// dispatcher, worker pool and metrics. Every hosted model gets its own, so
// one tenant's overload cannot reject another tenant's traffic.
type engineHost struct {
	cfg ModelConfig

	mu          sync.Mutex
	queue       []*request
	passthrough bool
	shutdown    bool

	// notify wakes the dispatcher (capacity 1; a dropped signal is fine
	// because the dispatcher re-checks state whenever it holds a token).
	notify  chan struct{}
	batchCh chan []*request

	metrics    *serverMetrics
	dispatchWG sync.WaitGroup
	workWG     sync.WaitGroup

	// mt is this model's trace state (nil when tracing is disabled).
	mt *trace.ModelTrace
}

// Server is a running inference server. New starts it listening; Close tears
// it down after draining admitted work.
type Server struct {
	ln net.Listener

	// hosts routes model ids to their serving machinery; defaultHost answers
	// predict frames without a model id (nil when several models are hosted
	// and none is the default).
	hosts       map[string]*engineHost
	hostList    []*engineHost
	defaultHost *engineHost

	mu       sync.Mutex
	shutdown bool
	conns    map[*serverConn]struct{}

	// scrape is the optional Prometheus endpoint (nil when disabled).
	scrape *scrapeServer

	// tracer is the optional span subsystem (nil when disabled).
	tracer *trace.Tracer

	// draining is set by Drain: the server stops admitting predict requests
	// (they answer StatusRejected) and probes answer ProbeDraining, but the
	// listener stays bound and every connection stays open until everything
	// admitted has been answered — a retiring replica never strands in-flight
	// work as hangs, and a router that probes before routing learns to stop
	// sending new work.
	draining  atomic.Bool
	drainOnce sync.Once

	acceptWG  sync.WaitGroup
	connWG    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New validates the configuration, binds the listener and starts the accept
// loop plus each hosted model's dispatcher and worker pool. The server is
// serving when New returns.
func New(cfg Config) (*Server, error) {
	models, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listening on %s: %w", cfg.Addr, err)
	}
	if cfg.WrapListener != nil {
		ln = cfg.WrapListener(ln)
	}
	s := &Server{
		ln:     ln,
		hosts:  make(map[string]*engineHost, len(models)),
		conns:  make(map[*serverConn]struct{}),
		tracer: cfg.Tracer,
	}
	for _, mc := range models {
		// The batch channel buffers one batch per worker, floored at 16 so a
		// small pool still lets the dispatcher run ahead of its workers.
		h := &engineHost{
			cfg:     mc,
			notify:  make(chan struct{}, 1),
			batchCh: make(chan []*request, max(mc.Workers, 16)),
			metrics: newServerMetrics(),
			mt:      cfg.Tracer.Model(mc.Name),
		}
		s.hosts[mc.Name] = h
		s.hostList = append(s.hostList, h)
		h.dispatchWG.Add(1)
		go h.dispatch()
		h.workWG.Add(mc.Workers)
		for i := 0; i < mc.Workers; i++ {
			go h.worker()
		}
	}
	// Frames without a model id route to the default engine, or to the single
	// hosted model.
	if h, ok := s.hosts[""]; ok {
		s.defaultHost = h
	} else if len(s.hostList) == 1 {
		s.defaultHost = s.hostList[0]
	}
	if cfg.MetricsAddr != "" {
		scrape, err := newScrapeServer(cfg.MetricsAddr, s, cfg.EnablePprof)
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.scrape = scrape
	}
	s.acceptWG.Add(1)
	go s.accept()
	return s, nil
}

// MetricsAddr returns the bound address of the Prometheus scrape endpoint,
// or "" when Config.MetricsAddr was unset.
func (s *Server) MetricsAddr() string {
	if s.scrape == nil {
		return ""
	}
	return s.scrape.addr()
}

// Addr returns the bound listen address (useful with the default ":0" port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Tracer returns the server's span subsystem, nil when tracing is disabled.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Models lists the hosted model ids in configuration order (the default
// model, when present, is the empty string).
func (s *Server) Models() []string {
	names := make([]string, len(s.hostList))
	for i, h := range s.hostList {
		names[i] = h.cfg.Name
	}
	return names
}

// Metrics returns a point-in-time snapshot of the serving metrics, merged
// across every hosted model (for a single-model server this is that model's
// snapshot, labeled with its id).
func (s *Server) Metrics() Snapshot {
	snaps := make([]Snapshot, len(s.hostList))
	for i, h := range s.hostList {
		snaps[i] = h.snapshot()
	}
	if len(snaps) == 1 {
		return snaps[0]
	}
	return MergeSnapshots(snaps...)
}

// ModelMetrics returns one hosted model's snapshot.
func (s *Server) ModelMetrics(name string) (Snapshot, error) {
	h, ok := s.hosts[name]
	if !ok {
		return Snapshot{}, fmt.Errorf("serve: no hosted model %q", name)
	}
	return h.snapshot(), nil
}

// Drain begins graceful retirement: the server stops admitting predict
// requests (new arrivals answer StatusRejected, probes answer ProbeDraining)
// and blocks until everything already admitted has been served and its
// response written. The listener stays bound and connections stay open, so
// clients can still collect metrics and observe the draining verdict; Close
// completes the teardown. Safe to call repeatedly and concurrently with
// Close.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		for _, h := range s.hostList {
			h.mu.Lock()
			h.shutdown = true
			h.mu.Unlock()
			h.signal()
		}
		for _, h := range s.hostList {
			h.dispatchWG.Wait() // drains the queue, then closes batchCh
			h.workWG.Wait()     // finishes in-flight batches (responses written)
		}
	})
}

// Draining reports whether graceful drain (or full shutdown) has begun.
func (s *Server) Draining() bool {
	if s.draining.Load() {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// Close stops accepting connections, drains every admitted request (each gets
// its response), then closes remaining connections. Safe to call repeatedly.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.ln.Close()
		if s.scrape != nil {
			s.scrape.close()
		}
		s.mu.Lock()
		s.shutdown = true
		s.mu.Unlock()
		s.Drain()
		s.mu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		s.acceptWG.Wait()
		s.connWG.Wait()
	})
	return s.closeErr
}

// Kill tears the server down abruptly: the listener and every connection
// close immediately and admitted-but-unanswered requests are abandoned — no
// drain, no final responses. It simulates a crash for fault-injection tests
// (the client sees exactly what a real server death looks like: connections
// dying with requests in flight); production shutdown is Drain then Close.
// Safe to call repeatedly; Close after Kill is a no-op.
func (s *Server) Kill() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.ln.Close()
		if s.scrape != nil {
			s.scrape.close()
		}
		s.mu.Lock()
		s.shutdown = true
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		for _, h := range s.hostList {
			h.mu.Lock()
			h.shutdown = true
			h.queue = nil // abandon queued work: a crash answers nothing
			h.mu.Unlock()
			h.signal()
		}
		for _, h := range s.hostList {
			h.dispatchWG.Wait()
			h.workWG.Wait()
		}
		s.acceptWG.Wait()
		s.connWG.Wait()
	})
	return s.closeErr
}

// accept runs the listener loop.
func (s *Server) accept() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(c)
		}()
	}
}

// hostFor resolves a predict frame's model id to its engineHost; ok is false
// for an unknown id (and for an absent id on an ambiguous multi-model server).
func (s *Server) hostFor(model string) (*engineHost, bool) {
	if model == "" {
		return s.defaultHost, s.defaultHost != nil
	}
	h, ok := s.hosts[model]
	return h, ok
}

// controlTargets resolves a control frame's model id: a named model controls
// itself, an absent id controls every hosted model.
func (s *Server) controlTargets(model string) []*engineHost {
	if model == "" {
		return s.hostList
	}
	if h, ok := s.hosts[model]; ok {
		return []*engineHost{h}
	}
	return nil
}

// serveConn reads frames off one connection until it closes or misbehaves.
func (s *Server) serveConn(c net.Conn) {
	defer c.Close()
	sc := &serverConn{c: c, w: bufio.NewWriter(c)}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()

	r := bufio.NewReader(c)
	for {
		msgType, flags, bodyBuf, err := readFrameBuf(r)
		if err != nil {
			return // EOF, closed, or oversized frame
		}
		// handleFrame never retains body bytes (ids and indexes are parsed
		// out, model ids are copied into strings), so the pooled buffer goes
		// straight back — the read side of the zero-allocation steady state.
		ok := s.handleFrame(sc, msgType, flags, bodyBuf.B)
		bodyBuf.Release()
		if !ok {
			return
		}
	}
}

// handleFrame decodes and acts on one request frame; a false return drops
// the connection (malformed or unknown frame).
func (s *Server) handleFrame(sc *serverConn, msgType, flags byte, body []byte) bool {
	req, err := decodeRequest(msgType, flags, body)
	if err != nil {
		return false
	}
	switch req.Type {
	case MsgPredict:
		h, ok := s.hostFor(req.Model)
		if !ok {
			// Unroutable (unknown model id, or no model id against several
			// hosted models): answered, never silently dropped.
			buf := AcquireBuffer(frameHeaderBytes + 9)
			buf.B = endFrame(appendPredictResponseFrame(buf.B, req.ID, StatusError, nil), 0)
			_ = sc.writeRawFrame(buf.B)
			buf.Release()
			return true
		}
		r := &request{id: req.ID, index: req.SampleIndex, deadline: req.Deadline, conn: sc}
		if req.TraceID != 0 && h.mt != nil {
			// Head-sampled and this server traces: record server spans. A
			// server without a tracer leaves tr nil and answers with the
			// trace flag clear.
			r.tr = &reqTrace{id: req.TraceID, arrived: time.Now()}
		}
		h.admit(r)
	case MsgFlush:
		for _, h := range s.controlTargets(req.Model) {
			h.flushSeries()
		}
	case MsgReopen:
		for _, h := range s.controlTargets(req.Model) {
			h.reopen()
		}
	case MsgMetrics:
		var snap Snapshot
		if req.Model == "" {
			snap = s.Metrics()
		} else if h, ok := s.hosts[req.Model]; ok {
			snap = h.snapshot()
		} else {
			// Unknown model: answered with an in-band error, like
			// unroutable predicts — never by dropping the connection.
			snap = Snapshot{Model: req.Model, Error: fmt.Sprintf("no hosted model %q", req.Model)}
		}
		data, err := json.Marshal(snap)
		if err != nil {
			return false
		}
		buf := AcquireBuffer(frameHeaderBytes + 8 + len(data))
		buf.B = appendIDFrame(buf.B, MsgMetrics, req.ID, data...)
		_ = sc.writeRawFrame(buf.B)
		buf.Release()
	case MsgProbe:
		ready := ProbeReady
		if s.Draining() {
			ready = ProbeDraining
		}
		buf := AcquireBuffer(frameHeaderBytes + 9)
		buf.B = appendIDFrame(buf.B, MsgProbe, req.ID, ready)
		_ = sc.writeRawFrame(buf.B)
		buf.Release()
	}
	return true
}

// snapshot assembles this host's labeled metrics snapshot.
func (h *engineHost) snapshot() Snapshot {
	h.mu.Lock()
	depth := len(h.queue)
	h.mu.Unlock()
	snap := h.metrics.snapshot(depth, h.cfg.Workers, h.cfg.MaxBatch, h.cfg.QueueDepth)
	snap.Model = h.cfg.Name
	kc := tensor.CurrentKernelConfig()
	snap.Kernel = &kc
	return snap
}

// signal wakes the dispatcher without blocking.
func (h *engineHost) signal() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// admit applies admission control to one arriving request and wakes the
// dispatcher. The shed victim (if any) is answered outside the queue lock.
// Requests arriving once shutdown has begun are rejected (Close still drains
// everything admitted before its flag was set).
func (h *engineHost) admit(r *request) {
	r.enqueued = time.Now()
	var shed *request
	rejected := false
	h.mu.Lock()
	switch {
	case h.shutdown:
		rejected = true
	case len(h.queue) >= h.cfg.QueueDepth:
		if h.cfg.Policy == ShedOldest {
			shed = h.queue[0]
			h.queue = append(h.queue[1:], r)
		} else {
			rejected = true
		}
	default:
		h.queue = append(h.queue, r)
	}
	h.mu.Unlock()

	if rejected {
		h.metrics.addRejected()
		h.respond(r, StatusRejected, nil)
		return
	}
	h.metrics.addAdmitted()
	if shed != nil {
		h.metrics.addShed()
		h.respond(shed, StatusRejected, nil)
	}
	h.signal()
}

// flushSeries is the MsgFlush path: the query series has ended, so forward
// everything buffered now and stop holding batches open for stragglers until
// reopen.
func (h *engineHost) flushSeries() {
	h.mu.Lock()
	h.passthrough = true
	h.mu.Unlock()
	h.metrics.addFlush()
	h.signal()
}

// reopen re-arms batching for a new query series.
func (h *engineHost) reopen() {
	h.mu.Lock()
	h.passthrough = false
	h.mu.Unlock()
}

// dispatch forms batches from the admission queue and hands them to the
// worker pool. An under-full batch is held open up to BatchWait from its
// oldest request's arrival unless pass-through or shutdown forces it out.
func (h *engineHost) dispatch() {
	defer h.dispatchWG.Done()
	defer close(h.batchCh)
	for {
		h.mu.Lock()
		for len(h.queue) == 0 {
			if h.shutdown {
				h.mu.Unlock()
				return
			}
			h.mu.Unlock()
			<-h.notify
			h.mu.Lock()
		}
		if !(h.passthrough || h.shutdown || len(h.queue) >= h.cfg.MaxBatch) {
			deadline := h.queue[0].enqueued.Add(h.cfg.BatchWait)
			h.mu.Unlock()
			h.waitForBatch(deadline)
			h.mu.Lock()
		}
		batch := h.takeLocked()
		h.mu.Unlock()
		if len(batch) > 0 {
			h.batchCh <- batch
		}
	}
}

// waitForBatch sleeps until the batch window closes: the queue fills to
// MaxBatch, pass-through/shutdown is flagged, or the deadline passes.
func (h *engineHost) waitForBatch(deadline time.Time) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return
		case <-h.notify:
			h.mu.Lock()
			done := h.passthrough || h.shutdown || len(h.queue) >= h.cfg.MaxBatch
			h.mu.Unlock()
			if done {
				return
			}
		}
	}
}

// takeLocked pops up to MaxBatch requests from the queue head. Caller holds
// h.mu.
func (h *engineHost) takeLocked() []*request {
	n := min(len(h.queue), h.cfg.MaxBatch)
	batch := make([]*request, n)
	copy(batch, h.queue[:n])
	var now time.Time
	for _, r := range batch {
		if r.tr != nil {
			if now.IsZero() {
				now = time.Now()
			}
			r.tr.taken = now
		}
	}
	h.queue = h.queue[n:]
	if len(h.queue) == 0 {
		h.queue = nil // release the backing array between bursts
	}
	return batch
}

// worker drains batches until the dispatcher closes the channel.
func (h *engineHost) worker() {
	defer h.workWG.Done()
	for batch := range h.batchCh {
		h.runBatch(batch)
	}
}

// runBatch expires stale requests, resolves the survivors' samples and runs
// them through the engine as one batched Predict on the pooled scratch-arena
// path, answering each request on its own connection.
func (h *engineHost) runBatch(batch []*request) {
	started := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() && started.After(r.deadline) {
			h.metrics.addExpired(1)
			h.respond(r, StatusExpired, nil)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	h.metrics.observeBatch(len(live))

	samples := make([]*dataset.Sample, 0, len(live))
	reqs := make([]*request, 0, len(live))
	for _, r := range live {
		sample, err := h.cfg.Store.Get(r.index)
		if err != nil {
			h.metrics.addErrored()
			h.respond(r, StatusError, nil)
			continue
		}
		samples = append(samples, sample)
		reqs = append(reqs, r)
	}
	if len(samples) == 0 {
		return
	}

	// Time the batched Predict only when a traced request shares the batch
	// (every member charges the whole batch run to its service slot).
	traced := false
	for _, r := range reqs {
		if r.tr != nil {
			traced = true
			break
		}
	}
	var serviceStart time.Time
	if traced {
		serviceStart = time.Now()
	}
	outputs, err := h.cfg.Engine.Predict(samples, nil)
	if traced {
		serviceNs := time.Since(serviceStart).Nanoseconds()
		for _, r := range reqs {
			if r.tr != nil {
				r.tr.service = serviceNs
			}
		}
	}
	if err != nil || len(outputs) != len(samples) {
		// One bad sample poisons a whole batched Predict; retry sample by
		// sample so errors stay isolated (mirrors backend.Native).
		for i, r := range reqs {
			h.predictOne(r, samples[i], started)
		}
		return
	}
	for i, r := range reqs {
		h.finish(r, outputs[i], started)
	}
}

// predictOne is the per-sample isolation fallback after a failed batch.
func (h *engineHost) predictOne(r *request, sample *dataset.Sample, started time.Time) {
	var serviceStart time.Time
	if r.tr != nil {
		serviceStart = time.Now()
	}
	outputs, err := h.cfg.Engine.Predict([]*dataset.Sample{sample}, nil)
	if r.tr != nil {
		r.tr.service = time.Since(serviceStart).Nanoseconds()
	}
	if err != nil || len(outputs) != 1 {
		h.metrics.addErrored()
		h.respond(r, StatusError, nil)
		return
	}
	h.finish(r, outputs[0], started)
}

// finish encodes one prediction, records latencies and answers the request.
// Metrics are recorded BEFORE the response is written so a snapshot taken by
// a client that has seen all its responses is consistent (Completed covers
// them); service time therefore excludes the buffered loopback write.
//
// The untraced path — the steady state — assembles the entire response
// frame in one pooled buffer, encoding the output directly into it: no
// per-frame allocation and a single write. The head-sampled traced path
// encodes the payload separately so the encode stage can be timed and the
// span block can precede it in the frame.
func (h *engineHost) finish(r *request, out model.Output, started time.Time) {
	if r.tr == nil {
		buf := AcquireBuffer(frameHeaderBytes + 9 + 64)
		b, err := out.AppendTo(appendPredictResponseFrame(buf.B, r.id, StatusOK, nil))
		if err != nil {
			buf.Release()
			h.metrics.addErrored()
			h.respond(r, StatusError, nil)
			return
		}
		buf.B = endFrame(b, 0)
		queued := started.Sub(r.enqueued)
		service := time.Since(started)
		h.metrics.observeService(queued, service)
		if h.mt != nil {
			// Untraced request on a tracing server: feed the tail tracker so
			// outliers the sampling coin missed are still retained, with the
			// queue/service split this path already measures.
			e2e := (queued + service).Nanoseconds()
			if h.mt.Observe(e2e) {
				rec := &trace.Record{
					Model: h.cfg.Name, Origin: trace.OriginServer,
					Start: r.enqueued.UnixNano(), End2End: e2e, Tail: true,
				}
				rec.Stages[trace.StageQueue] = queued.Nanoseconds()
				rec.Stages[trace.StageService] = service.Nanoseconds()
				h.mt.Publish(rec)
			}
		}
		_ = r.conn.writeRawFrame(buf.B)
		buf.Release()
		return
	}

	encodeStart := time.Now()
	data := AcquireBuffer(64)
	db, err := out.AppendTo(data.B)
	r.tr.encode = time.Since(encodeStart).Nanoseconds()
	if err != nil {
		data.Release()
		h.metrics.addErrored()
		h.respond(r, StatusError, nil)
		return
	}
	data.B = db
	queued := started.Sub(r.enqueued)
	service := time.Since(started)
	h.metrics.observeService(queued, service)
	// Build the span block the traced response carries back.
	r.tr.spans = &trace.WireSpans{
		RecvUnixNano: r.tr.arrived.UnixNano(),
		Admit:        nonNegNanos(r.enqueued.Sub(r.tr.arrived)),
		Queue:        nonNegNanos(r.tr.taken.Sub(r.enqueued)),
		Assembly:     nonNegNanos(started.Sub(r.tr.taken)),
		Service:      r.tr.service,
		Encode:       r.tr.encode,
	}
	h.respond(r, StatusOK, data.B)
	data.Release()
}

// nonNegNanos floors a duration at zero nanoseconds (stage boundaries taken
// from different clock reads can invert by a few nanoseconds).
func nonNegNanos(d time.Duration) int64 {
	if d < 0 {
		return 0
	}
	return d.Nanoseconds()
}

// respond writes one predict response; a write error means the client has
// gone away, which does not concern the serving loop. A head-sampled
// request's answer carries the span block when the success path built one;
// the write is timed as its reply stage and the server-side record published.
func (h *engineHost) respond(r *request, status Status, data []byte) {
	tr := r.tr
	var spans *trace.WireSpans
	if tr != nil {
		spans = tr.spans
	}
	replyStart := time.Now()
	buf := AcquireBuffer(frameHeaderBytes + spanBlockBytes + 9 + len(data))
	buf.B = endFrame(append(appendPredictResponseFrame(buf.B, r.id, status, spans), data...), 0)
	_ = r.conn.writeRawFrame(buf.B)
	buf.Release()
	if tr == nil {
		return
	}
	replyNs := time.Since(replyStart).Nanoseconds()
	e2e := time.Since(tr.arrived).Nanoseconds()
	rec := &trace.Record{
		TraceID: tr.id, Model: h.cfg.Name, Origin: trace.OriginServer,
		Start: tr.arrived.UnixNano(), End2End: e2e,
		Tail: h.mt.Observe(e2e),
	}
	if tr.spans != nil {
		rec.Stages[trace.StageAdmit] = tr.spans.Admit
		rec.Stages[trace.StageQueue] = tr.spans.Queue
		rec.Stages[trace.StageAssembly] = tr.spans.Assembly
		rec.Stages[trace.StageService] = tr.spans.Service
		rec.Stages[trace.StageEncode] = tr.spans.Encode
	}
	rec.Stages[trace.StageReply] = replyNs
	h.mt.Publish(rec)
}
