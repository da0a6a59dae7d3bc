package backend

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
	"mlperf/internal/stats"
	"mlperf/internal/trace"
)

// RemoteConfig configures a Remote SUT client.
type RemoteConfig struct {
	// Addr is a single serve.Server address (host:port). Either Addr or
	// Addrs is required; setting Addr is shorthand for a one-replica Addrs.
	Addr string
	// Addrs is the replica set: one serve.Server address per replica. The
	// Remote fans the SUT's traffic out over all of them (least-in-flight
	// routing with a per-replica in-flight window), so N identical servers
	// behave as one SUT with N times the service capacity. Replicas must be
	// identical deployments (same task/samples/seed ⇒ same weights and data),
	// which keeps outputs bit-identical no matter which replica answers.
	Addrs []string
	// Model addresses one of the server's hosted models by id. Empty drives
	// the server's default model.
	Model string
	// Name labels the SUT in results; defaults to "remote(<addrs>)".
	Name string
	// Conns is how many TCP connections the client multiplexes requests
	// over per replica (default 2). Responses return on the connection that
	// carried the request; more connections reduce head-of-line blocking in
	// the kernel socket buffers under high offered load.
	Conns int
	// MaxInFlight bounds the client's outstanding (unanswered) requests per
	// replica (default 256). This is the client half of the flow-control
	// pair — each server's admission queue is the other — and is what lets a
	// merged offline query of tens of thousands of samples stream through
	// bounded server queues without mass rejects. Issuing blocks when every
	// replica's window is full, which the LoadGen observes as scheduling
	// backpressure (an overloaded SUT falling behind, exactly what the
	// Server scenario is designed to penalize).
	MaxInFlight int
	// Deadline, when positive, stamps every request with an absolute
	// deadline this far in the future; the server answers StatusExpired
	// instead of serving requests whose deadline passed while queued.
	Deadline time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration

	// DisableRecovery restores the PR 5 failure semantics: a failed
	// connection stays dead, a replica that loses every connection stays
	// down for the Remote's lifetime, and requests stranded by a transport
	// failure settle as dropped instead of failing over. By default the
	// Remote supervises every connection: it re-dials with exponential
	// backoff and deterministic jitter, health-probes the server before
	// readmitting it, re-runs the reopen barrier when a whole replica
	// rejoins, and retries transport-failed requests on a live replica
	// (inference is idempotent — the same sample index yields bit-identical
	// bytes on any replica — so failover never changes what a sample
	// answers, only who answers it).
	DisableRecovery bool
	// RedialInitial is the first redial backoff step (default 10ms); each
	// failed attempt doubles it up to RedialMax (default 1s). The actual
	// delay is jittered in [delay/2, delay) by a deterministic RNG.
	RedialInitial time.Duration
	RedialMax     time.Duration
	// RecoverySeed seeds the deterministic backoff jitter (default 1). Every
	// (replica, connection, outage) triple forks its own stream from it, so
	// a fixed seed reproduces the same redial schedule run over run.
	RecoverySeed uint64
	// MaxAttempts bounds the total delivery attempts per request, the first
	// included (default: number of replicas + 1, floored at 2). When the
	// attempts are exhausted, or no replica is live, the request settles as
	// dropped — the run terminates invalid instead of hanging or retrying
	// forever.
	MaxAttempts int
	// ProbeTimeout bounds the health-probe round trip on a fresh connection
	// before it is readmitted (default 2s).
	ProbeTimeout time.Duration
	// RejoinWait is the grace period a request caught with NO live replica
	// waits for a re-join before settling as dropped. The deadline is shared
	// by every request stranded in the same outage, so a total outage stalls
	// the stream by at most RejoinWait rather than dropping everything issued
	// during a few-millisecond blip. Zero derives the default (twice
	// RedialMax); negative disables waiting (instant drops, the PR 5
	// behavior for a fully-down fleet).
	RejoinWait time.Duration
	// Dialer, when set, replaces net.DialTimeout for every connection (the
	// initial pool and every redial). It exists for fault injection:
	// internal/chaos supplies a dialer whose connections sever, delay,
	// truncate or corrupt frames on a seeded schedule.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Tracer, when set, enables client-side request tracing: every request
	// feeds the tail tracker (outliers beyond the live p99 estimate are
	// retained with their end-to-end latency), and one request in every
	// Tracer.SampleEvery is head-sampled — it carries a trace id to the
	// server, records the client's issue/acquire/write/await/decode stages,
	// and folds the server's span block from the response into one
	// cross-process record. Nil disables tracing with
	// zero per-request cost.
	Tracer *trace.Tracer
}

func (c *RemoteConfig) normalize() error {
	if len(c.Addrs) == 0 {
		if c.Addr == "" {
			return fmt.Errorf("backend: remote SUT needs an address")
		}
		c.Addrs = []string{c.Addr}
	}
	if c.Name == "" {
		label := strings.Join(c.Addrs, ",")
		if c.Model != "" {
			label = c.Model + "@" + label
		}
		c.Name = fmt.Sprintf("remote(%s)", label)
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RedialInitial <= 0 {
		c.RedialInitial = 10 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = time.Second
	}
	if c.RecoverySeed == 0 {
		c.RecoverySeed = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = len(c.Addrs) + 1
		if c.MaxAttempts < 2 {
			c.MaxAttempts = 2
		}
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.RejoinWait == 0 {
		c.RejoinWait = 2 * c.RedialMax
	}
	return nil
}

// Remote drives one or more serve.Server replicas as a single system under
// test: a loadgen.SUT whose inference happens across a real network boundary.
// Each query sample becomes one predict request routed to the replica with
// the fewest requests in flight (each server's dynamic batcher re-coalesces
// them), so every scenario — SingleStream, MultiStream, Server, Offline —
// runs over the wire against the whole replica set with zero changes to the
// LoadGen.
//
// Shed load is never silent: requests a server rejects or expires complete
// their query with loadgen.Response.Dropped set, which the LoadGen counts and
// uses to invalidate the run.
//
// Transport failures, by contrast, are transients the fleet absorbs: a
// request stranded on a failed connection fails over to a live replica
// (bounded by MaxAttempts; outputs stay bit-identical because replicas are
// identical deployments), every failed connection re-dials under an
// exponential-backoff supervisor with deterministic jitter, and a replica
// that lost all its connections is readmitted to routing only after a fresh
// connection passes the health-probe handshake and the reopen barrier has
// re-armed its batcher. Down/up intervals, rejoins, redials, retries and the
// drops that remained after failover are recorded in Recovery and attached
// to merged metrics snapshots. Only when failover is exhausted (or recovery
// is disabled) does a transport failure settle the request as dropped, which
// invalidates the run rather than hanging it.
type Remote struct {
	cfg      RemoteConfig
	replicas []*replica
	nextID   atomic.Uint64 // wire request ids

	// mt is the addressed model's client-side trace state (nil when
	// RemoteConfig.Tracer is unset), cached so the hot path never takes the
	// tracer's model-map lock.
	mt *trace.ModelTrace

	feeders  sync.WaitGroup // multi-sample issue goroutines
	inflight sync.WaitGroup // outstanding requests

	rejected atomic.Int64
	expired  atomic.Int64

	// Recovery counters (per-replica interval state lives on each replica).
	connRedials    atomic.Int64
	retries        atomic.Int64
	transportDrops atomic.Int64

	// liveMu guards the full-fleet outage state: liveCh is non-nil while no
	// replica is live (closed and cleared when one rejoins, waking every
	// request waiting out the outage) and outageEnd is the shared drop-dead
	// deadline those waiters share.
	liveMu    sync.Mutex
	liveCh    chan struct{}
	outageEnd time.Time

	closing atomic.Bool
	stop    chan struct{} // closed by Close; ends redial supervisors
	// superMu serializes spawning redial supervisors against Close: closing
	// flips under it before superWG.Wait, so no supervisor can Add after the
	// Wait has started on a drained group.
	superMu sync.Mutex
	superWG sync.WaitGroup
	errs    errorLog
}

// replica is one server in the replica set: its connection pool, its half of
// the flow-control window, and its liveness state.
type replica struct {
	r     *Remote
	idx   int
	addr  string
	conns []*remoteConn
	next  atomic.Uint64 // round-robin connection cursor

	// window holds this replica's in-flight slots; its load doubles as the
	// in-flight count the router's least-in-flight choice reads.
	window *flowWindow

	down atomic.Bool // no live connections; the router skips it

	// mu guards the lifecycle state below.
	mu        sync.Mutex
	liveConns int
	rejoining bool      // a rejoin barrier is in progress
	downSince time.Time // valid while down
	intervals []serve.DownInterval
	rejoins   int
	// lastSnap is the most recent metrics snapshot fetched from the current
	// server epoch; when the replica goes down it is banked in lostEpochs so
	// a restarted (zero-countered) server's numbers merge with — rather than
	// replace — what its predecessor reported. Counters are never double
	// counted: each epoch contributes either its live snapshot or its last
	// fetch before the crash, never both.
	lastSnap   serve.Snapshot
	hasLast    bool
	lostEpochs []serve.Snapshot
}

// pendingRequest ties a wire id back to the query sample awaiting it.
type pendingRequest struct {
	query    *loadgen.Query
	sampleID uint64
	index    int
	attempt  int // 1-based delivery attempt

	// Tracing state. issueNano is set for every request when tracing is
	// enabled (the tail tracker needs end-to-end latency for all of them);
	// the remaining fields are populated only for head-sampled requests
	// (traceID != 0). writeNs and sentNano are stored back into the pending
	// map under rc.mu after the socket flush — the same mutex the reader
	// pops the entry under — which is the happens-before edge that makes
	// them safely visible to resolve.
	traceID   uint64
	issueNano int64 // wall clock at issue (UnixNano)
	issueNs   int64 // StageIssue duration
	acquireNs int64 // StageAcquire duration (accumulated across attempts)
	writeNs   int64 // StageWrite duration
	sentNano  int64 // wall clock after the request frame flushed
}

// remoteConn is one slot in a replica's connection pool. The slot is stable
// for the Remote's lifetime; the connection inside it is an epoch that dies
// on transport failure and is replaced by the redial supervisor (gen counts
// epochs so a stale reader cannot kill its successor). Each live epoch has a
// serialized writer plus a reader goroutine that demultiplexes responses.
type remoteConn struct {
	rep  *replica
	slot int

	wmu sync.Mutex
	w   *bufio.Writer

	mu      sync.Mutex
	gen     uint64
	c       net.Conn
	dead    bool
	pending map[uint64]pendingRequest
	metrics map[uint64]chan []byte
}

// write serializes one frame onto the connection: fn writes it, then the
// buffered writer is flushed, all under the write lock. A dead slot fails
// fast instead of writing into a replaced epoch.
func (rc *remoteConn) write(fn func(w io.Writer) error) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	rc.mu.Lock()
	dead := rc.dead
	rc.mu.Unlock()
	if dead {
		return fmt.Errorf("backend: connection to %s is down", rc.rep.addr)
	}
	if err := fn(rc.w); err != nil {
		return err
	}
	return rc.w.Flush()
}

// install swaps a freshly dialed (and probed) connection into the slot and
// starts its reader. Holding both locks while swapping guarantees no writer
// is mid-frame and no request registers against the old epoch's maps.
func (rc *remoteConn) install(c net.Conn) uint64 {
	rc.wmu.Lock()
	rc.mu.Lock()
	rc.gen++
	gen := rc.gen
	rc.c = c
	rc.w = bufio.NewWriter(c)
	rc.dead = false
	rc.pending = make(map[uint64]pendingRequest)
	rc.metrics = make(map[uint64]chan []byte)
	rc.mu.Unlock()
	rc.wmu.Unlock()
	go rc.readLoop(gen, c)
	return gen
}

// dial opens one connection to addr through the configured dialer.
func (r *Remote) dial(addr string) (net.Conn, error) {
	if r.cfg.Dialer != nil {
		return r.cfg.Dialer(addr, r.cfg.DialTimeout)
	}
	return net.DialTimeout("tcp", addr, r.cfg.DialTimeout)
}

// NewRemote dials every replica and returns the connected SUT client. A
// replica that refuses its initial dial fails construction.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &Remote{cfg: cfg, stop: make(chan struct{}), mt: cfg.Tracer.Model(cfg.Model)}
	// Dial every connection before starting any reader: a connection that
	// dies instantly would otherwise race its fail() against construction.
	var conns []net.Conn
	for idx, addr := range cfg.Addrs {
		rep := &replica{r: r, idx: idx, addr: addr, window: newFlowWindow(cfg.MaxInFlight), liveConns: cfg.Conns}
		for i := 0; i < cfg.Conns; i++ {
			c, err := r.dial(addr)
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return nil, fmt.Errorf("backend: dialing replica %s: %w", addr, err)
			}
			conns = append(conns, c)
			rep.conns = append(rep.conns, &remoteConn{rep: rep, slot: i})
		}
		r.replicas = append(r.replicas, rep)
	}
	for _, rep := range r.replicas {
		for _, rc := range rep.conns {
			rc.install(conns[0])
			conns = conns[1:]
		}
	}
	return r, nil
}

// Name implements loadgen.SUT.
func (r *Remote) Name() string { return r.cfg.Name }

// Tracer returns the client's span subsystem, nil when tracing is disabled.
func (r *Remote) Tracer() *trace.Tracer { return r.cfg.Tracer }

// Addrs returns the replica addresses in configuration order.
func (r *Remote) Addrs() []string { return append([]string(nil), r.cfg.Addrs...) }

// IssueQuery implements loadgen.SUT. Single-sample queries issue inline
// (blocking briefly on the in-flight window when it is full — backpressure
// the LoadGen should see); multi-sample queries stream from a feeder
// goroutine so the call returns quickly.
func (r *Remote) IssueQuery(q *loadgen.Query) {
	if len(q.Samples) <= 1 {
		for i := range q.Samples {
			r.issueSample(q, q.Samples[i])
		}
		return
	}
	r.feeders.Add(1)
	go func() {
		defer r.feeders.Done()
		for i := range q.Samples {
			r.issueSample(q, q.Samples[i])
		}
	}()
}

// pick chooses the replica for the next request: the live replica with the
// fewest requests in flight (ties go to the lowest index). When every
// replica is down it returns the emptiest one anyway — its dead connections
// settle the request as dropped, so the run terminates invalid instead of
// hanging.
func (r *Remote) pick() *replica {
	pickWhere := func(ok func(*replica) bool) *replica {
		var best *replica
		bestLoad := 0
		for _, rep := range r.replicas {
			if !ok(rep) {
				continue
			}
			load := rep.window.load()
			if best == nil || load < bestLoad {
				best, bestLoad = rep, load
			}
		}
		return best
	}
	if best := pickWhere(func(rep *replica) bool { return !rep.down.Load() }); best != nil {
		return best
	}
	return pickWhere(func(*replica) bool { return true })
}

// anyLive reports whether at least one replica is admitting traffic.
func (r *Remote) anyLive() bool {
	for _, rep := range r.replicas {
		if !rep.down.Load() {
			return true
		}
	}
	return false
}

// issueSample raises the in-flight count for one query sample and makes its
// first delivery attempt. Whichever side settles it — the reader on a
// response, or failover once every attempt is spent — balances the count
// exactly once.
func (r *Remote) issueSample(q *loadgen.Query, s loadgen.QuerySample) {
	r.inflight.Add(1)
	p := pendingRequest{query: q, sampleID: s.ID, index: s.Index, attempt: 1}
	if r.mt != nil {
		p.issueNano = time.Now().UnixNano()
		p.traceID = r.cfg.Tracer.Issue()
	}
	r.send(p)
}

// send routes one delivery attempt to a replica, holding one of that
// replica's in-flight window slots until its response arrives (or the
// attempt fails and the slot is released by failover). The connection scan
// starts at the round-robin cursor and skips dead slots, so a replica with
// one broken connection keeps serving on its live ones while the supervisor
// re-dials the broken one.
func (r *Remote) send(p pendingRequest) {
	traced := p.traceID != 0
	var acquireStart time.Time
	if traced {
		acquireStart = time.Now()
		if p.issueNs == 0 {
			p.issueNs = acquireStart.UnixNano() - p.issueNano
		}
	}
	rep := r.pick()
	rep.window.acquire()
	var rc *remoteConn
	start := rep.next.Add(1)
	for i := 0; i < len(rep.conns); i++ {
		if cand := rep.conns[(start+uint64(i))%uint64(len(rep.conns))]; !cand.isDead() {
			rc = cand
			break
		}
	}
	if traced {
		// Accumulates across failover attempts: the slot answers "how long
		// did this request wait for a window and a live connection, total".
		p.acquireNs += time.Since(acquireStart).Nanoseconds()
	}
	if rc == nil {
		// Every slot is between epochs (the replica is going down or coming
		// up); burn this attempt and re-route.
		r.failover(rep, p, nil)
		return
	}

	id := r.nextID.Add(1)
	rc.mu.Lock()
	if rc.dead {
		rc.mu.Unlock()
		r.failover(rep, p, nil)
		return
	}
	gen := rc.gen
	rc.pending[id] = p
	rc.mu.Unlock()

	req := serve.PredictRequest{ID: id, SampleIndex: p.index, Model: r.cfg.Model, TraceID: p.traceID}
	if r.cfg.Deadline > 0 {
		req.Deadline = time.Now().Add(r.cfg.Deadline)
	}
	var writeStart time.Time
	if traced {
		writeStart = time.Now()
	}
	err := rc.write(func(w io.Writer) error { return serve.WritePredictRequest(w, req) })
	if err != nil {
		// A failed write means the connection is broken, not just this
		// request: kill the epoch. fail drains every pending request on it —
		// this one included — into failover, closes the socket (unblocking a
		// reader that has not noticed yet) and hands the slot to the redial
		// supervisor. Idempotent against the reader failing it concurrently.
		rc.fail(gen, err)
		return
	}
	if traced {
		// Store the write duration and flush timestamp back into the pending
		// entry under rc.mu — the reader pops entries under the same mutex,
		// so this is the happens-before edge that publishes them (the socket
		// itself gives the race detector no cross-goroutine ordering). If the
		// response already arrived, the entry is gone and the await/write
		// slots simply stay zero.
		writeNs := time.Since(writeStart).Nanoseconds()
		rc.mu.Lock()
		if entry, ok := rc.pending[id]; ok && rc.gen == gen {
			entry.writeNs = writeNs
			entry.sentNano = time.Now().UnixNano()
			rc.pending[id] = entry
		}
		rc.mu.Unlock()
	}
}

// failover releases the failed attempt's window slot and re-routes the
// request to a live replica — waiting out a full-fleet outage up to the
// shared RejoinWait deadline if it has to — or settles it as dropped when
// attempts are exhausted, no replica comes back, recovery is disabled, or
// the client is closing. Retrying is sound because inference is idempotent:
// any replica answers a sample index with bit-identical bytes.
func (r *Remote) failover(rep *replica, p pendingRequest, cause error) {
	rep.window.release()
	if !r.closing.Load() && !r.cfg.DisableRecovery && p.attempt < r.cfg.MaxAttempts &&
		(r.anyLive() || r.awaitFleet()) {
		r.retries.Add(1)
		p.attempt++
		r.send(p)
		return
	}
	if !r.closing.Load() && !r.cfg.DisableRecovery {
		r.transportDrops.Add(1)
	}
	p.query.Complete([]loadgen.Response{{SampleID: p.sampleID, Dropped: true}})
	r.inflight.Done()
}

// fleetDown opens the full-fleet outage window (no-op if one is already
// open): requests that find no live replica wait on liveCh until a rejoin
// closes it or the shared outage deadline passes.
func (r *Remote) fleetDown() {
	r.liveMu.Lock()
	if r.liveCh == nil {
		r.liveCh = make(chan struct{})
		r.outageEnd = time.Now().Add(r.cfg.RejoinWait)
	}
	r.liveMu.Unlock()
}

// fleetUp ends the outage window, waking every waiter.
func (r *Remote) fleetUp() {
	r.liveMu.Lock()
	if r.liveCh != nil {
		close(r.liveCh)
		r.liveCh = nil
	}
	r.liveMu.Unlock()
}

// awaitFleet blocks until some replica is live again, the outage's shared
// grace deadline passes, or the client closes; it reports whether a live
// replica exists. Sharing one deadline across every stranded request bounds
// a total outage's stall to RejoinWait regardless of how much traffic is
// caught in it.
func (r *Remote) awaitFleet() bool {
	for {
		if r.anyLive() {
			return true
		}
		r.liveMu.Lock()
		ch := r.liveCh
		end := r.outageEnd
		r.liveMu.Unlock()
		if ch == nil {
			// No outage window is open (it closed just now, or the failing
			// path has not opened one yet) — nothing to wait on.
			return r.anyLive()
		}
		wait := time.Until(end)
		if wait <= 0 {
			return r.anyLive()
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
			// A replica rejoined (or another outage replaced this one) —
			// loop and re-check.
		case <-timer.C:
			return r.anyLive()
		case <-r.stop:
			timer.Stop()
			return false
		}
	}
}

// settle releases one of this replica's window slots and completes one
// sample's response.
func (rep *replica) settle(q *loadgen.Query, resp loadgen.Response) {
	rep.window.release()
	q.Complete([]loadgen.Response{resp})
	rep.r.inflight.Done()
}

// readLoop demultiplexes one connection epoch's responses until it closes.
// On a transport failure the epoch dies: every request still pending on it
// fails over (or settles as dropped), and the redial supervisor takes the
// slot.
func (rc *remoteConn) readLoop(gen uint64, c net.Conn) {
	br := bufio.NewReader(c)
	for {
		frame, err := serve.ReadClientFrame(br)
		if err != nil {
			rc.fail(gen, err)
			return
		}
		switch frame.Type {
		case serve.MsgPredict:
			if rc.resolve(frame.Predict) {
				// The query settled synchronously and nothing retains
				// resp.Data past completion (the accuracy log copies; sinks
				// are documented not to retain), so the pooled frame buffer
				// goes straight back — this is what closes the client-side
				// read loop at zero steady-state allocations.
				frame.Release()
			}
		case serve.MsgMetrics:
			rc.mu.Lock()
			ch := rc.metrics[frame.MetricsID]
			delete(rc.metrics, frame.MetricsID)
			rc.mu.Unlock()
			if ch != nil {
				ch <- frame.MetricsJSON
			}
		}
	}
}

// resolve routes one predict response back to its query. Server-decided
// dispositions (rejected, expired, errored) are terminal — shed load must
// stay visible, so it is never retried.
//
// It reports whether the caller may reuse the memory resp.Data points into:
// true for single-sample queries (the completion handler ran synchronously
// inside settle and Query.responses is never read again) and for responses
// with no live entry; false for multi-sample queries, whose Query retains
// every sample's Data until the last response arrives.
func (rc *remoteConn) resolve(resp serve.PredictResponse) bool {
	rc.mu.Lock()
	entry, ok := rc.pending[resp.ID]
	delete(rc.pending, resp.ID)
	rc.mu.Unlock()
	if !ok {
		return true // already settled by a write failure
	}
	r := rc.rep.r
	var rec *trace.Record
	var decodeStart time.Time
	if r.mt != nil {
		// Every response feeds the tail tracker; a record is retained when
		// the request was head-sampled OR its latency is a tail outlier.
		decodeStart = time.Now()
		e2e := decodeStart.UnixNano() - entry.issueNano
		tail := r.mt.Observe(e2e)
		if entry.traceID != 0 || tail {
			rec = &trace.Record{
				TraceID: entry.traceID, Model: r.cfg.Model,
				Origin: trace.OriginClient,
				Start:  entry.issueNano, End2End: e2e, Tail: tail,
			}
			if entry.traceID != 0 {
				rec.Stages[trace.StageIssue] = entry.issueNs
				rec.Stages[trace.StageAcquire] = entry.acquireNs
				rec.Stages[trace.StageWrite] = entry.writeNs
				if entry.sentNano > 0 {
					if await := decodeStart.UnixNano() - entry.sentNano; await > 0 {
						rec.Stages[trace.StageAwait] = await
					}
				}
			}
			if resp.Spans != nil {
				// Fold the server's span block in: the cross-process record.
				rec.HasServer = true
				rec.ServerStart = resp.Spans.RecvUnixNano
				rec.Stages[trace.StageAdmit] = resp.Spans.Admit
				rec.Stages[trace.StageQueue] = resp.Spans.Queue
				rec.Stages[trace.StageAssembly] = resp.Spans.Assembly
				rec.Stages[trace.StageService] = resp.Spans.Service
				rec.Stages[trace.StageEncode] = resp.Spans.Encode
			}
		}
	}
	out := loadgen.Response{SampleID: entry.sampleID}
	switch resp.Status {
	case serve.StatusOK:
		out.Data = resp.Data
	case serve.StatusRejected:
		r.rejected.Add(1)
		out.Dropped = true
	case serve.StatusExpired:
		r.expired.Add(1)
		out.Dropped = true
	default: // StatusError and anything unknown: recorded AND dropped, so
		// the run is invalid even for callers that never drain Errors.
		r.errs.add(fmt.Errorf("backend %s: replica %s reported %v for sample id %d", r.cfg.Name, rc.rep.addr, resp.Status, entry.sampleID))
		out.Dropped = true
	}
	rc.rep.settle(entry.query, out)
	if rec != nil {
		if entry.traceID != 0 {
			decode := time.Since(decodeStart).Nanoseconds()
			rec.Stages[trace.StageDecode] = decode
			// End2End was snapped at decodeStart (the tail tracker needs it
			// then); stretch it over the decode span so the client stages
			// always sum to at most the end-to-end duration.
			rec.End2End += decode
		}
		r.mt.Publish(rec)
	}
	return len(entry.query.Samples) <= 1
}

// fail kills a broken connection epoch and fails over everything pending on
// it. Setting dead under the same lock that guards registration guarantees
// no request can be registered after the drain and never settled. When the
// replica's last connection dies the replica is marked down and the router
// stops sending it traffic; unless recovery is disabled, a supervisor then
// owns the slot and re-dials it with backoff.
func (rc *remoteConn) fail(gen uint64, err error) {
	rc.mu.Lock()
	if rc.gen != gen || rc.dead {
		// A stale epoch's reader (or a duplicate failure) — the slot has
		// already moved on.
		rc.mu.Unlock()
		return
	}
	rc.dead = true
	rc.c.Close()
	pending := rc.pending
	rc.pending = make(map[uint64]pendingRequest)
	metrics := rc.metrics
	rc.metrics = make(map[uint64]chan []byte)
	rc.mu.Unlock()

	rep := rc.rep
	r := rep.r
	rep.mu.Lock()
	rep.liveConns--
	wentDown := rep.liveConns == 0 && !rep.down.Load()
	if wentDown {
		rep.down.Store(true)
		rep.downSince = time.Now()
		if rep.hasLast {
			// Bank the dying epoch's last known counters so a restarted
			// server's zeroed metrics merge with them instead of erasing them.
			rep.lostEpochs = append(rep.lostEpochs, rep.lastSnap)
			rep.hasLast = false
		}
	}
	rep.mu.Unlock()

	if wentDown {
		if !r.anyLive() {
			r.fleetDown()
		}
		if !r.closing.Load() {
			r.errs.add(fmt.Errorf("backend %s: replica %s is down (all %d connections failed)", r.cfg.Name, rep.addr, len(rep.conns)))
		}
	}
	if !r.closing.Load() && len(pending) > 0 {
		r.errs.add(fmt.Errorf("backend %s: connection to %s failed with %d requests outstanding: %w", r.cfg.Name, rep.addr, len(pending), err))
	}
	for _, entry := range pending {
		r.failover(rep, entry, err)
	}
	for _, ch := range metrics {
		close(ch)
	}
	if !r.cfg.DisableRecovery {
		r.superMu.Lock()
		if !r.closing.Load() {
			r.superWG.Add(1)
			go rc.redial(gen)
		}
		r.superMu.Unlock()
	}
}

// redial is the per-connection supervisor: it re-dials the slot's address
// with exponential backoff and deterministic jitter, health-probes the fresh
// connection, and only then installs it and (when the whole replica was
// down) re-runs the reopen barrier before readmitting the replica to
// routing. It exits when the connection is restored or the client closes.
func (rc *remoteConn) redial(failedGen uint64) {
	rep := rc.rep
	r := rep.r
	defer r.superWG.Done()
	// One deterministic jitter stream per (replica, slot, outage): a fixed
	// RecoverySeed reproduces the same backoff schedule run over run.
	rng := stats.NewRNG(r.cfg.RecoverySeed ^
		(uint64(rep.idx)+1)<<40 ^ (uint64(rc.slot)+1)<<20 ^ failedGen)
	backoff := r.cfg.RedialInitial
	timer := time.NewTimer(jitter(backoff, rng))
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		if r.closing.Load() {
			return
		}
		c, err := r.dial(rep.addr)
		if err == nil {
			err = r.probe(c)
			if err == nil {
				r.connRedials.Add(1)
				rc.install(c)
				rep.rejoined(rc)
				return
			}
			c.Close()
		}
		if backoff *= 2; backoff > r.cfg.RedialMax {
			backoff = r.cfg.RedialMax
		}
		timer.Reset(jitter(backoff, rng))
	}
}

// jitter draws a deterministic delay in [d/2, d).
func jitter(d time.Duration, rng *stats.RNG) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// probe runs the health-probe handshake on a fresh, not-yet-installed
// connection: the server must answer the probe frame ProbeReady within
// ProbeTimeout. A draining (retiring) or unresponsive server is not
// readmitted — the supervisor keeps backing off instead.
func (r *Remote) probe(c net.Conn) error {
	id := r.nextID.Add(1)
	c.SetDeadline(time.Now().Add(r.cfg.ProbeTimeout))
	defer c.SetDeadline(time.Time{})
	w := bufio.NewWriter(c)
	if err := serve.WriteProbeRequest(w, id); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	frame, err := serve.ReadClientFrame(bufio.NewReaderSize(c, 64))
	if err != nil {
		return err
	}
	defer frame.Release()
	if frame.Type != serve.MsgProbe || frame.ProbeID != id {
		return fmt.Errorf("backend: probe answered with frame type %d", frame.Type)
	}
	if !frame.ProbeReady {
		return fmt.Errorf("backend: server %s is draining", c.RemoteAddr())
	}
	return nil
}

// rejoined records a restored connection and, when it is a down replica's
// first, re-runs the reopen barrier before readmitting the replica to
// routing — the same discipline as recovering to a consistent point before
// rejoining: a restarted server comes up with its batcher armed for a new
// series, and the barrier's metrics round trip both proves the ordering and
// baselines the new epoch's counters.
func (rep *replica) rejoined(rc *remoteConn) {
	rep.mu.Lock()
	rep.liveConns++
	barrier := rep.down.Load() && !rep.rejoining
	if barrier {
		rep.rejoining = true
	}
	rep.mu.Unlock()
	if !barrier {
		return
	}

	err := rep.rejoinBarrier(rc)
	ok := err == nil && !rc.isDead()
	rep.mu.Lock()
	rep.rejoining = false
	if ok {
		rep.intervals = append(rep.intervals, serve.DownInterval{
			Replica: rep.idx, Addr: rep.addr, Start: rep.downSince, End: time.Now(),
		})
		rep.rejoins++
		rep.down.Store(false)
		rep.mu.Unlock()
		rep.r.fleetUp()
		return
	}
	rep.mu.Unlock()
	// The barrier failed: the fresh connection died again. Its reader's
	// fail() restarts the supervisor; the replica stays down.
}

// isDead reports whether the slot's current epoch has already failed.
func (rc *remoteConn) isDead() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.dead
}

// rejoinBarrier re-arms the restarted replica's batcher (model-scoped
// MsgReopen) and fences it with a metrics round trip on the same
// connection: the server reads frames per connection in order, so when the
// reply arrives the reopen has been applied. The fetched snapshot baselines
// the new epoch for per-replica metrics merging.
func (rep *replica) rejoinBarrier(rc *remoteConn) error {
	err := rc.write(func(w io.Writer) error {
		return serve.WriteControl(w, serve.MsgReopen, rep.r.cfg.Model)
	})
	if err != nil {
		return err
	}
	snap, err := rep.metricsOn(rc)
	if err != nil {
		return err
	}
	rep.mu.Lock()
	rep.lastSnap = snap
	rep.hasLast = true
	rep.mu.Unlock()
	return nil
}

// FlushQueries implements loadgen.SUT: once every issued sample has been
// written (feeders drained), the end-of-series flush is forwarded to every
// replica so no batcher keeps holding partial batches open.
func (r *Remote) FlushQueries() {
	r.feeders.Wait()
	r.control(serve.MsgFlush)
}

// Reopen re-arms every replica's batcher for a new query series;
// loadgen.StartTest calls it at the start of every run. The metrics
// round-trip after the control frame is a barrier: each server reads frames
// per connection in order, so when the replies arrive the reopen has been
// applied — queries issued after Reopen returns (on any connection) can no
// longer be dispatched in the previous series' pass-through mode.
func (r *Remote) Reopen() {
	r.control(serve.MsgReopen)
	for _, rep := range r.replicas {
		_, _ = rep.serverMetrics()
	}
}

// liveConn returns the replica's first live connection slot, or nil when the
// replica is entirely down.
func (rep *replica) liveConn() *remoteConn {
	for _, rc := range rep.conns {
		if !rc.isDead() {
			return rc
		}
	}
	return nil
}

// control sends a control frame to every replica on its first live
// connection; a fully-down replica is skipped (its rejoin barrier re-arms it
// instead).
func (r *Remote) control(msgType byte) {
	for _, rep := range r.replicas {
		rc := rep.liveConn()
		if rc == nil {
			continue
		}
		err := rc.write(func(w io.Writer) error { return serve.WriteControl(w, msgType, r.cfg.Model) })
		if err != nil && !r.closing.Load() && !rep.down.Load() {
			r.errs.add(fmt.Errorf("backend %s: sending control frame %d to %s: %w", r.cfg.Name, msgType, rep.addr, err))
		}
	}
}

// Recovery returns the client-observed fault-tolerance record: every replica
// outage (closed intervals for rejoined replicas, an open interval for any
// replica still down), plus redial, failover-retry and transport-drop
// counters. Intervals are sorted by start time.
func (r *Remote) Recovery() serve.RecoveryStats {
	rec := serve.RecoveryStats{
		ConnRedials:    r.connRedials.Load(),
		Retries:        r.retries.Load(),
		TransportDrops: r.transportDrops.Load(),
	}
	for _, rep := range r.replicas {
		rep.mu.Lock()
		rec.DownIntervals = append(rec.DownIntervals, rep.intervals...)
		rec.Rejoins += rep.rejoins
		if rep.down.Load() {
			rec.DownIntervals = append(rec.DownIntervals, serve.DownInterval{
				Replica: rep.idx, Addr: rep.addr, Start: rep.downSince,
			})
		}
		rep.mu.Unlock()
	}
	sort.Slice(rec.DownIntervals, func(i, j int) bool {
		return rec.DownIntervals[i].Start.Before(rec.DownIntervals[j].Start)
	})
	return rec
}

// ServerMetrics fetches a metrics snapshot from every replica and merges
// them (serve.MergeSnapshots): counters sum, latency percentiles take the
// worst shard. The merged snapshot carries the Recovery record, so down/up
// intervals are visible exactly where the run's counters are reported. It
// fails only when no replica answers.
func (r *Remote) ServerMetrics() (serve.Snapshot, error) {
	snaps, err := r.ReplicaMetrics()
	if err != nil {
		return serve.Snapshot{}, err
	}
	var merged serve.Snapshot
	if len(snaps) == 1 {
		merged = snaps[0]
	} else {
		merged = serve.MergeSnapshots(snaps...)
	}
	rec := r.Recovery()
	merged.Recovery = &rec
	return merged, nil
}

// ReplicaMetrics fetches each replica's snapshot (in Addrs order). A replica
// that crashed and rejoined reports the merge of its pre-crash epochs' last
// known counters with the current server's live snapshot — summed once per
// epoch, never double counted — and a replica that is down right now still
// contributes its banked epochs. It fails when no replica yields anything.
func (r *Remote) ReplicaMetrics() ([]serve.Snapshot, error) {
	var (
		snaps   []serve.Snapshot
		lastErr error
	)
	for _, rep := range r.replicas {
		snap, err := rep.serverMetrics()
		if err != nil {
			rep.mu.Lock()
			epochs := append([]serve.Snapshot(nil), rep.lostEpochs...)
			rep.mu.Unlock()
			if len(epochs) == 0 {
				lastErr = err
				continue
			}
			if len(epochs) == 1 {
				snap = epochs[0]
			} else {
				snap = serve.MergeSnapshots(epochs...)
			}
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("backend %s: no replicas", r.cfg.Name)
		}
		return nil, lastErr
	}
	return snaps, nil
}

// serverMetrics fetches one replica's snapshot (the hosted model's when the
// client is model-addressed, the server's merged snapshot otherwise), folded
// with any pre-crash epochs the client banked for it.
func (rep *replica) serverMetrics() (serve.Snapshot, error) {
	rc := rep.liveConn()
	if rc == nil {
		return serve.Snapshot{}, fmt.Errorf("backend %s: replica %s has no live connections", rep.r.cfg.Name, rep.addr)
	}
	live, err := rep.metricsOn(rc)
	if err != nil {
		return serve.Snapshot{}, err
	}
	rep.mu.Lock()
	rep.lastSnap = live
	rep.hasLast = true
	epochs := append([]serve.Snapshot(nil), rep.lostEpochs...)
	rep.mu.Unlock()
	if len(epochs) == 0 {
		return live, nil
	}
	return serve.MergeSnapshots(append(epochs, live)...), nil
}

// metricsOn runs one metrics round trip on a specific connection.
func (rep *replica) metricsOn(rc *remoteConn) (serve.Snapshot, error) {
	r := rep.r
	var snap serve.Snapshot
	id := r.nextID.Add(1)
	ch := make(chan []byte, 1)
	rc.mu.Lock()
	if rc.dead {
		rc.mu.Unlock()
		return snap, fmt.Errorf("backend %s: replica %s connection is down", r.cfg.Name, rep.addr)
	}
	rc.metrics[id] = ch
	rc.mu.Unlock()

	if err := rc.write(func(w io.Writer) error { return serve.WriteMetricsRequest(w, id, r.cfg.Model) }); err != nil {
		rc.mu.Lock()
		delete(rc.metrics, id)
		rc.mu.Unlock()
		return snap, fmt.Errorf("backend %s: requesting metrics from %s: %w", r.cfg.Name, rep.addr, err)
	}
	select {
	case data, ok := <-ch:
		if !ok {
			return snap, fmt.Errorf("backend %s: replica %s closed before metrics arrived", r.cfg.Name, rep.addr)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			return snap, fmt.Errorf("backend %s: decoding metrics from %s: %w", r.cfg.Name, rep.addr, err)
		}
		if snap.Error != "" {
			return snap, fmt.Errorf("backend %s: replica %s: %s", r.cfg.Name, rep.addr, snap.Error)
		}
		return snap, nil
	case <-time.After(10 * time.Second):
		rc.mu.Lock()
		delete(rc.metrics, id)
		rc.mu.Unlock()
		return snap, fmt.Errorf("backend %s: metrics request to %s timed out", r.cfg.Name, rep.addr)
	}
}

// Wait blocks until every issued request has been answered (or settled by a
// connection failure). The harness calls it after the LoadGen reports
// completion, like Native.Wait.
func (r *Remote) Wait() {
	r.feeders.Wait()
	r.inflight.Wait()
}

// Errors returns transport and server-side inference errors observed so far.
// Rejected and expired requests are NOT errors — they are shed load, counted
// by Rejected/Expired and reflected in the run's validity via dropped
// responses. Successful recoveries are not errors either: they are recorded
// in Recovery.
func (r *Remote) Errors() []error { return r.errs.all() }

// Rejected returns how many requests the replicas' admission control shed.
func (r *Remote) Rejected() int64 { return r.rejected.Load() }

// Expired returns how many requests expired past their deadline while queued.
func (r *Remote) Expired() int64 { return r.expired.Load() }

// TransportDrops returns how many requests settled as dropped after
// exhausting failover — the drops not explained by a reject or expiry.
func (r *Remote) TransportDrops() int64 { return r.transportDrops.Load() }

// DownReplicas returns how many replicas currently have no live connection.
// A replica that crashed and rejoined no longer counts; its outage is
// recorded in Recovery.
func (r *Remote) DownReplicas() int {
	n := 0
	for _, rep := range r.replicas {
		if rep.down.Load() {
			n++
		}
	}
	return n
}

// Close tears down the client's connections to every replica and stops the
// redial supervisors. In-flight requests settle as dropped without recording
// transport errors.
func (r *Remote) Close() error {
	var first error
	r.superMu.Lock()
	if r.closing.CompareAndSwap(false, true) {
		close(r.stop)
	}
	r.superMu.Unlock()
	for _, rep := range r.replicas {
		for _, rc := range rep.conns {
			rc.mu.Lock()
			c := rc.c
			rc.mu.Unlock()
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	r.superWG.Wait()
	return first
}
