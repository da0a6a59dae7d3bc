package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/model"
	"mlperf/internal/payload"
	"mlperf/internal/tensor"
	"mlperf/internal/trace"
)

// echoEngine answers every sample with its index as the class, optionally
// blocking on a gate so tests can hold the worker pool busy deterministically.
type echoEngine struct {
	gate chan struct{} // when non-nil, every Predict waits for one token
}

func (e *echoEngine) Name() string       { return "echo" }
func (e *echoEngine) Kind() dataset.Kind { return dataset.KindImageClassification }

func (e *echoEngine) Predict(samples []*dataset.Sample, _ *tensor.Scratch) ([]model.Output, error) {
	if e.gate != nil {
		<-e.gate
	}
	out := make([]model.Output, len(samples))
	for i, s := range samples {
		out[i] = model.Output{Kind: dataset.KindImageClassification, Class: s.Index}
	}
	return out, nil
}

// indexStore fabricates samples on demand.
type indexStore struct{}

func (indexStore) Get(index int) (*dataset.Sample, error) {
	if index < 0 || index >= 1<<20 {
		return nil, fmt.Errorf("bad index %d", index)
	}
	return &dataset.Sample{Index: index}, nil
}

// testClient is a bare protocol client for white-box server tests.
type testClient struct {
	t  *testing.T
	c  net.Conn
	r  *bufio.Reader
	mu sync.Mutex
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &testClient{t: t, c: c, r: bufio.NewReader(c)}
}

func (tc *testClient) predict(id uint64, index int, deadline time.Time) {
	tc.t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := WritePredictRequest(tc.c, PredictRequest{ID: id, SampleIndex: index, Deadline: deadline}); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testClient) control(msgType byte) {
	tc.t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := WriteControl(tc.c, msgType, ""); err != nil {
		tc.t.Fatal(err)
	}
}

// read collects n predict responses keyed by id.
func (tc *testClient) read(n int) map[uint64]PredictResponse {
	tc.t.Helper()
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	out := make(map[uint64]PredictResponse, n)
	for len(out) < n {
		frame, err := ReadClientFrame(tc.r)
		if err != nil {
			tc.t.Fatalf("reading response %d of %d: %v", len(out)+1, n, err)
		}
		if frame.Type != MsgPredict {
			continue
		}
		out[frame.Predict.ID] = frame.Predict
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil && len(cfg.Models) == 0 {
		cfg.Engine = &echoEngine{}
	}
	if cfg.Store == nil {
		cfg.Store = indexStore{}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestProtocolRoundTrip(t *testing.T) {
	// Requests: every flag combination survives the writer, the pooled frame
	// reader and the server's decoder; a zero deadline survives as zero.
	deadline := time.Unix(0, 1234567890)
	for _, want := range []PredictRequest{
		{ID: 42, SampleIndex: 7, Deadline: deadline},
		{ID: 42, SampleIndex: 7, Deadline: deadline, Model: "resnet"},
		{ID: 42, SampleIndex: 7, Deadline: deadline, TraceID: 99},
		{ID: 42, SampleIndex: 7, Deadline: deadline, Model: "resnet", TraceID: 99},
		{ID: 1, SampleIndex: 2},
	} {
		var buf bytes.Buffer
		if err := WritePredictRequest(&buf, want); err != nil {
			t.Fatal(err)
		}
		msgType, flags, body, err := readFrameBuf(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("readFrameBuf: %v", err)
		}
		got, err := decodeRequest(msgType, flags, body.B)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != MsgPredict || got.ID != want.ID || got.SampleIndex != want.SampleIndex ||
			!got.Deadline.Equal(want.Deadline) || got.Deadline.IsZero() != want.Deadline.IsZero() ||
			got.Model != want.Model || got.TraceID != want.TraceID {
			t.Errorf("request round-trip mismatch: sent %+v, decoded %+v", want, got)
		}
	}

	// Responses through the client-side entry point: plain, carrying a span
	// block, and a payload-less rejection (which never carries one).
	spans := &trace.WireSpans{
		RecvUnixNano: 1_700_000_000_000_000_000,
		Admit:        10, Queue: 20, Assembly: 30, Service: 40, Encode: 50,
	}
	for _, want := range []PredictResponse{
		{ID: 42, Status: StatusOK, Data: []byte("payload")},
		{ID: 7, Status: StatusOK, Data: []byte("encoded-output"), Spans: spans},
		{ID: 8, Status: StatusRejected},
	} {
		frame, err := ReadClientFrame(bufio.NewReader(bytes.NewReader(
			predictResponseBytes(want.ID, want.Status, want.Spans, want.Data))))
		if err != nil {
			t.Fatal(err)
		}
		got := frame.Predict
		if frame.Type != MsgPredict || got.ID != want.ID || got.Status != want.Status || !bytes.Equal(got.Data, want.Data) ||
			(got.Data == nil) != (want.Data == nil) {
			t.Errorf("response round-trip mismatch: sent %+v, decoded %+v", want, got)
		}
		if (got.Spans == nil) != (want.Spans == nil) || (got.Spans != nil && *got.Spans != *want.Spans) {
			t.Errorf("span block mangled: sent %+v, decoded %+v", want.Spans, got.Spans)
		}
	}

	// Oversized frames are refused.
	oversized := bufio.NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, MsgPredict, 0}))
	if _, _, _, err := readFrameBuf(oversized); err == nil {
		t.Error("oversized frame: expected error")
	}
}

func TestServeAnswersWithEncodedOutputs(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, BatchWait: time.Millisecond})
	tc := dialTest(t, s.Addr())
	const n = 16
	for i := 0; i < n; i++ {
		tc.predict(uint64(i+1), i*3, time.Time{})
	}
	responses := tc.read(n)
	for i := 0; i < n; i++ {
		resp := responses[uint64(i+1)]
		if resp.Status != StatusOK {
			t.Fatalf("request %d: status %v", i+1, resp.Status)
		}
		class, err := payload.DecodeClass(resp.Data)
		if err != nil {
			t.Fatal(err)
		}
		if class != i*3 {
			t.Errorf("request %d: class %d, want %d", i+1, class, i*3)
		}
	}
	snap := s.Metrics()
	if snap.Admitted != n || snap.Completed != n || snap.Rejected != 0 {
		t.Errorf("metrics: %+v", snap)
	}
	var batched uint64
	for _, b := range snap.BatchHistogram {
		batched += b.Count
	}
	if batched == 0 {
		t.Error("no batches recorded in the histogram")
	}
}

func TestServeBadSampleIndexIsIsolated(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, BatchWait: time.Millisecond})
	tc := dialTest(t, s.Addr())
	tc.predict(1, 5, time.Time{})
	tc.predict(2, 1<<21, time.Time{}) // store error
	tc.predict(3, 9, time.Time{})
	responses := tc.read(3)
	if responses[1].Status != StatusOK || responses[3].Status != StatusOK {
		t.Errorf("good samples: %v, %v", responses[1].Status, responses[3].Status)
	}
	if responses[2].Status != StatusError {
		t.Errorf("bad sample: status %v, want %v", responses[2].Status, StatusError)
	}
	if snap := s.Metrics(); snap.Errors != 1 {
		t.Errorf("metrics errors = %d, want 1", snap.Errors)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Engine: &echoEngine{gate: gate}, Workers: 1, QueueDepth: 2,
		MaxBatch: 1, BatchWait: time.Millisecond, Policy: RejectNewest,
	})
	tc := dialTest(t, s.Addr())
	const n = 32
	for i := 0; i < n; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	// The gated worker (1), the batch channel (16 single-request batches) and
	// the admission queue (2) cannot hold 32 requests however fast the
	// dispatcher drains: rejects must surface while the gate is shut.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no rejects despite a full queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	responses := tc.read(n)
	var ok, rejected int
	for _, resp := range responses {
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusRejected:
			rejected++
		default:
			t.Errorf("unexpected status %v", resp.Status)
		}
	}
	if rejected == 0 || ok == 0 || ok+rejected != n {
		t.Errorf("ok %d + rejected %d, want both positive summing to %d", ok, rejected, n)
	}
	snap := s.Metrics()
	if snap.Rejected != uint64(rejected) || snap.Admitted != uint64(ok) {
		t.Errorf("metrics admitted/rejected = %d/%d, want %d/%d", snap.Admitted, snap.Rejected, ok, rejected)
	}
}

func TestAdmissionControlShedsOldest(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Engine: &echoEngine{gate: gate}, Workers: 1, QueueDepth: 2,
		MaxBatch: 1, BatchWait: time.Millisecond, Policy: ShedOldest,
	})
	tc := dialTest(t, s.Addr())
	const n = 32 // more than worker + batch channel + queue can hold, as above
	for i := 0; i < n; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sheds despite a full queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	responses := tc.read(n)
	var rejectedIDs, okIDs []uint64
	for id, resp := range responses {
		if resp.Status == StatusRejected {
			rejectedIDs = append(rejectedIDs, id)
		} else if resp.Status == StatusOK {
			okIDs = append(okIDs, id)
		}
	}
	if len(rejectedIDs) == 0 {
		t.Fatal("no rejects recorded")
	}
	// Shedding the oldest means the LAST arrival always survives.
	for _, id := range rejectedIDs {
		if id == n {
			t.Errorf("shed-oldest rejected the newest request (id %d)", id)
		}
	}
	if len(okIDs)+len(rejectedIDs) != n {
		t.Errorf("%d ok + %d rejected, want %d total", len(okIDs), len(rejectedIDs), n)
	}
	// Counter reconciliation: every shed request was first admitted, so
	// admitted covers both the served and the shed.
	snap := s.Metrics()
	if snap.Shed != uint64(len(rejectedIDs)) || snap.Rejected != 0 {
		t.Errorf("metrics shed/rejected = %d/%d, want %d/0", snap.Shed, snap.Rejected, len(rejectedIDs))
	}
	if snap.Admitted != snap.Completed+snap.Shed {
		t.Errorf("admitted %d != completed %d + shed %d", snap.Admitted, snap.Completed, snap.Shed)
	}
}

func TestDeadlineExpiresQueuedRequests(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Engine: &echoEngine{gate: gate}, Workers: 1, QueueDepth: 16,
		MaxBatch: 1, BatchWait: time.Millisecond,
	})
	tc := dialTest(t, s.Addr())
	tc.predict(1, 0, time.Time{})                        // occupies the worker
	tc.predict(2, 1, time.Now().Add(5*time.Millisecond)) // will expire while queued
	tc.predict(3, 2, time.Now().Add(10*time.Second))     // generous: survives
	time.Sleep(30 * time.Millisecond)                    // let request 2's deadline lapse
	gate <- struct{}{}                                   // finish request 1
	gate <- struct{}{}                                   // serve request 3 (request 2 expires without predicting)
	close(gate)
	responses := tc.read(3)
	if responses[1].Status != StatusOK {
		t.Errorf("request 1: %v, want ok", responses[1].Status)
	}
	if responses[2].Status != StatusExpired {
		t.Errorf("request 2: %v, want expired", responses[2].Status)
	}
	if responses[3].Status != StatusOK {
		t.Errorf("request 3: %v, want ok", responses[3].Status)
	}
	if snap := s.Metrics(); snap.Expired != 1 {
		t.Errorf("metrics expired = %d, want 1", snap.Expired)
	}
}

// batchRecordingEngine is an echoEngine that records the size of every batch
// the dispatcher hands it.
type batchRecordingEngine struct {
	echoEngine
	mu    sync.Mutex
	sizes []int
}

func (e *batchRecordingEngine) Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]model.Output, error) {
	e.mu.Lock()
	e.sizes = append(e.sizes, len(samples))
	e.mu.Unlock()
	return e.echoEngine.Predict(samples, s)
}

// TestDispatcherMergesUpToMaxBatch: requests that arrive separately reach the
// engine merged into one Predict call once MaxBatch of them are queued, no
// call ever exceeds MaxBatch however many are queued, and the under-full
// remainder goes out at the end-of-series flush. The 10 s window means only
// the size trigger and the flush can dispatch.
func TestDispatcherMergesUpToMaxBatch(t *testing.T) {
	eng := &batchRecordingEngine{}
	s := newTestServer(t, Config{Engine: eng, Workers: 1, MaxBatch: 3, BatchWait: 10 * time.Second})
	tc := dialTest(t, s.Addr())
	const n = 7
	for i := 0; i < n; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	full := tc.read(6) // two full batches dispatch on size alone
	tc.control(MsgFlush)
	for id, resp := range tc.read(1) {
		full[id] = resp
	}
	for i := 0; i < n; i++ {
		if full[uint64(i+1)].Status != StatusOK {
			t.Errorf("request %d: %v", i+1, full[uint64(i+1)].Status)
		}
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if got := fmt.Sprint(eng.sizes); got != "[3 3 1]" {
		t.Errorf("engine saw batches %s, want [3 3 1]", got)
	}
}

func TestFlushSwitchesToPassthroughAndReopenRearms(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 8, BatchWait: 10 * time.Second})
	tc := dialTest(t, s.Addr())
	// Three requests would wait out the 10s window...
	tc.predict(1, 0, time.Time{})
	tc.predict(2, 1, time.Time{})
	tc.predict(3, 2, time.Time{})
	tc.control(MsgFlush) // ...but the end-of-series flush forces them out now.
	responses := tc.read(3)
	for id := uint64(1); id <= 3; id++ {
		if responses[id].Status != StatusOK {
			t.Errorf("request %d: %v", id, responses[id].Status)
		}
	}
	// Pass-through: a straggler is answered immediately, no re-armed window.
	tc.predict(4, 3, time.Time{})
	if resp := tc.read(1); resp[4].Status != StatusOK {
		t.Errorf("straggler: %v", resp[4].Status)
	}
	// Reopen re-arms batching: a full batch dispatches without the window.
	tc.control(MsgReopen)
	for i := 0; i < 8; i++ {
		tc.predict(uint64(10+i), i, time.Time{})
	}
	full := tc.read(8)
	for i := 0; i < 8; i++ {
		if full[uint64(10+i)].Status != StatusOK {
			t.Errorf("batched request %d: %v", 10+i, full[uint64(10+i)].Status)
		}
	}
	if snap := s.Metrics(); snap.Flushes != 1 {
		t.Errorf("metrics flushes = %d, want 1", snap.Flushes)
	}
}

func TestMetricsOverTheWire(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 2, BatchWait: time.Millisecond})
	tc := dialTest(t, s.Addr())
	tc.predict(1, 4, time.Time{})
	tc.read(1)
	tc.mu.Lock()
	err := WriteMetricsRequest(tc.c, 99, "")
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := ReadClientFrame(tc.r)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != MsgMetrics || frame.MetricsID != 99 {
		t.Fatalf("frame type %d id %d, want metrics id 99", frame.Type, frame.MetricsID)
	}
	var snap Snapshot
	if err := json.Unmarshal(frame.MetricsJSON, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Completed != 1 || snap.Admitted != 1 {
		t.Errorf("wire snapshot: %+v", snap)
	}
	if snap.ServiceP99 <= 0 || snap.QueueP99 < 0 {
		t.Errorf("latency percentiles not populated: %+v", snap)
	}
}

func TestConcurrentConnections(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 8, BatchWait: time.Millisecond})
	const conns, per = 4, 64
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			go func() {
				for i := 0; i < per; i++ {
					id := uint64(c*per + i + 1)
					WritePredictRequest(conn, PredictRequest{ID: id, SampleIndex: int(id) * 7})
				}
			}()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			for i := 0; i < per; i++ {
				frame, err := ReadClientFrame(r)
				if err != nil {
					errs <- err
					return
				}
				resp := frame.Predict
				class, err := payload.DecodeClass(resp.Data)
				if err != nil {
					errs <- err
					return
				}
				if class != int(resp.ID)*7 {
					errs <- fmt.Errorf("id %d answered class %d, want %d", resp.ID, class, resp.ID*7)
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if snap := s.Metrics(); snap.Completed != conns*per {
		t.Errorf("completed %d, want %d", snap.Completed, conns*per)
	}
}

func TestCloseDrainsAdmittedWork(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, BatchWait: time.Millisecond})
	tc := dialTest(t, s.Addr())
	const n = 8
	for i := 0; i < n; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	responses := tc.read(n) // all answered before we close
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for id, resp := range responses {
		if resp.Status != StatusOK {
			t.Errorf("request %d: %v", id, resp.Status)
		}
	}
	// Double close is safe.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Store: indexStore{}}); err == nil {
		t.Error("missing engine: expected error")
	}
	if _, err := New(Config{Engine: &echoEngine{}}); err == nil {
		t.Error("missing store: expected error")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy: expected error")
	}
	if p, err := ParsePolicy("shed-oldest"); err != nil || p != ShedOldest {
		t.Errorf("ParsePolicy(shed-oldest) = %v, %v", p, err)
	}
}

// offsetEngine answers sample index + offset, so multi-model tests can tell
// which engine served a request.
type offsetEngine struct {
	offset int
}

func (e *offsetEngine) Name() string       { return fmt.Sprintf("offset(%d)", e.offset) }
func (e *offsetEngine) Kind() dataset.Kind { return dataset.KindImageClassification }

func (e *offsetEngine) Predict(samples []*dataset.Sample, _ *tensor.Scratch) ([]model.Output, error) {
	out := make([]model.Output, len(samples))
	for i, s := range samples {
		out[i] = model.Output{Kind: dataset.KindImageClassification, Class: s.Index + e.offset}
	}
	return out, nil
}

// predictModel writes a model-addressed predict request.
func (tc *testClient) predictModel(id uint64, index int, modelID string) {
	tc.t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := WritePredictRequest(tc.c, PredictRequest{ID: id, SampleIndex: index, Model: modelID}); err != nil {
		tc.t.Fatal(err)
	}
}

// TestMultiModelRouting hosts two named engines behind one listener and
// checks that predict frames route by model id, each model's metrics stay
// separate, and the merged snapshot reconciles with their sum.
func TestMultiModelRouting(t *testing.T) {
	s := newTestServer(t, Config{
		Store: indexStore{},
		Models: []ModelConfig{
			{Name: "alpha", Engine: &offsetEngine{offset: 1000}},
			{Name: "beta", Engine: &offsetEngine{offset: 2000}},
		},
		MaxBatch: 4, BatchWait: time.Millisecond,
	})
	got := s.Models()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Models() = %v", got)
	}
	tc := dialTest(t, s.Addr())
	const n = 8
	for i := 0; i < n; i++ {
		tc.predictModel(uint64(i+1), i, "alpha")
		tc.predictModel(uint64(100+i+1), i, "beta")
	}
	responses := tc.read(2 * n)
	for i := 0; i < n; i++ {
		a := responses[uint64(i+1)]
		b := responses[uint64(100+i+1)]
		if a.Status != StatusOK || b.Status != StatusOK {
			t.Fatalf("request %d: alpha %v, beta %v", i, a.Status, b.Status)
		}
		aClass, err := payload.DecodeClass(a.Data)
		if err != nil {
			t.Fatal(err)
		}
		bClass, err := payload.DecodeClass(b.Data)
		if err != nil {
			t.Fatal(err)
		}
		if aClass != i+1000 {
			t.Errorf("alpha answered class %d for index %d, want %d", aClass, i, i+1000)
		}
		if bClass != i+2000 {
			t.Errorf("beta answered class %d for index %d, want %d", bClass, i, i+2000)
		}
	}

	// Per-model metrics are separated; the merged snapshot is their sum.
	alpha, err := s.ModelMetrics("alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := s.ModelMetrics("beta")
	if err != nil {
		t.Fatal(err)
	}
	if alpha.Model != "alpha" || beta.Model != "beta" {
		t.Errorf("snapshot labels: %q, %q", alpha.Model, beta.Model)
	}
	if alpha.Completed != n || beta.Completed != n {
		t.Errorf("per-model completed: alpha %d, beta %d, want %d each", alpha.Completed, beta.Completed, n)
	}
	merged := s.Metrics()
	if merged.Completed != 2*n || merged.Admitted != 2*n {
		t.Errorf("merged snapshot: %+v", merged)
	}
	if merged.Merged != 2 {
		t.Errorf("merged count = %d, want 2", merged.Merged)
	}
	if _, err := s.ModelMetrics("gamma"); err == nil {
		t.Error("unknown model metrics: expected error")
	}
}

// TestMultiModelUnroutableAnswersError: predicts without a model id against an
// ambiguous multi-model server and predicts naming an unknown model are answered
// with StatusError — never silently dropped, never crossing to a wrong model.
func TestMultiModelUnroutableAnswersError(t *testing.T) {
	s := newTestServer(t, Config{
		Store: indexStore{},
		Models: []ModelConfig{
			{Name: "alpha", Engine: &offsetEngine{offset: 1000}},
			{Name: "beta", Engine: &offsetEngine{offset: 2000}},
		},
		MaxBatch: 2, BatchWait: time.Millisecond,
	})
	tc := dialTest(t, s.Addr())
	tc.predict(1, 3, time.Time{})  // no model id, no default model
	tc.predictModel(2, 3, "gamma") // unknown model id
	tc.predictModel(3, 3, "alpha") // sanity: still routable
	responses := tc.read(3)
	if responses[1].Status != StatusError {
		t.Errorf("unaddressed predict on ambiguous server: %v, want %v", responses[1].Status, StatusError)
	}
	if responses[2].Status != StatusError {
		t.Errorf("unknown model: %v, want %v", responses[2].Status, StatusError)
	}
	if responses[3].Status != StatusOK {
		t.Errorf("routable request: %v, want ok", responses[3].Status)
	}
}

// TestSingleNamedModelIsDefault: when exactly one (named) model is hosted,
// predict frames without a model id route to it.
func TestSingleNamedModelIsDefault(t *testing.T) {
	s := newTestServer(t, Config{
		Store:    indexStore{},
		Models:   []ModelConfig{{Name: "solo", Engine: &offsetEngine{offset: 500}}},
		MaxBatch: 2, BatchWait: time.Millisecond,
	})
	tc := dialTest(t, s.Addr())
	tc.predict(1, 7, time.Time{})
	resp := tc.read(1)[1]
	if resp.Status != StatusOK {
		t.Fatalf("status %v", resp.Status)
	}
	class, err := payload.DecodeClass(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if class != 507 {
		t.Errorf("class %d, want 507", class)
	}
}

// TestModelScopedControls: a model-addressed flush switches only that model
// to pass-through; a flush without a model id flushes every hosted model.
func TestModelScopedControls(t *testing.T) {
	s := newTestServer(t, Config{
		Store: indexStore{},
		Models: []ModelConfig{
			{Name: "alpha", Engine: &offsetEngine{offset: 0}},
			{Name: "beta", Engine: &offsetEngine{offset: 0}},
		},
		MaxBatch: 8, BatchWait: 10 * time.Second,
	})
	tc := dialTest(t, s.Addr())
	writeControlModel := func(msgType byte, modelID string) {
		tc.t.Helper()
		tc.mu.Lock()
		defer tc.mu.Unlock()
		if err := WriteControl(tc.c, msgType, modelID); err != nil {
			t.Fatal(err)
		}
	}
	// A lone alpha request would wait out the 10s window; flushing alpha (and
	// only alpha) forces it out.
	tc.predictModel(1, 1, "alpha")
	writeControlModel(MsgFlush, "alpha")
	if resp := tc.read(1)[1]; resp.Status != StatusOK {
		t.Fatalf("alpha flush: %v", resp.Status)
	}
	alpha, _ := s.ModelMetrics("alpha")
	beta, _ := s.ModelMetrics("beta")
	if alpha.Flushes != 1 || beta.Flushes != 0 {
		t.Errorf("flushes alpha/beta = %d/%d, want 1/0", alpha.Flushes, beta.Flushes)
	}
	// The unaddressed flush reaches every model.
	tc.control(MsgFlush)
	deadline := time.Now().Add(5 * time.Second)
	for {
		alpha, _ = s.ModelMetrics("alpha")
		beta, _ = s.ModelMetrics("beta")
		if alpha.Flushes == 2 && beta.Flushes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("global flush not applied: alpha %d, beta %d", alpha.Flushes, beta.Flushes)
		}
		time.Sleep(time.Millisecond)
	}
	// Beta is now in pass-through too: its straggler answers immediately.
	tc.predictModel(9, 2, "beta")
	if resp := tc.read(1)[9]; resp.Status != StatusOK {
		t.Errorf("beta pass-through: %v", resp.Status)
	}
}

// TestProbeDrainKill pins the health-probe handshake against the server's
// three lifecycle states: a live server answers ProbeReady, a draining server
// answers ProbeDraining (while still answering everything already admitted),
// and a killed server answers nothing at all.
func TestProbeDrainKill(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	tc := dialTest(t, s.Addr())

	probe := func(id uint64) (ClientFrame, error) {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		if err := WriteProbeRequest(tc.c, id); err != nil {
			return ClientFrame{}, err
		}
		tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		return ReadClientFrame(tc.r)
	}

	frame, err := probe(1)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != MsgProbe || frame.ProbeID != 1 || !frame.ProbeReady {
		t.Fatalf("live server probe: %+v", frame)
	}

	// Admit work, then drain: the admitted request is answered, and probes on
	// the still-open connection now report draining.
	tc.predict(2, 3, time.Time{})
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Admitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
	got := tc.read(1)
	if resp, ok := got[2]; !ok || resp.Status != StatusOK {
		t.Fatalf("drained server abandoned admitted work: %+v", got)
	}
	frame, err = probe(4)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != MsgProbe || frame.ProbeReady {
		t.Fatalf("draining server probe should answer ProbeDraining: %+v", frame)
	}

	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := probe(5); err == nil {
		t.Fatal("killed server answered a probe")
	}
}

// TestMergeSnapshots pins the merge semantics the router's merged view and
// the multi-model server's Metrics rely on.
func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{
		QueueDepth: 1, Admitted: 10, Completed: 8, Rejected: 2, Expired: 1,
		Workers: 2, MaxBatch: 8, QueueP99: 100, ServiceP99: 50,
		BatchHistogram: []BatchBucket{{Le: 1, Count: 3}, {Le: 2, Count: 5}},
	}
	b := Snapshot{
		QueueDepth: 2, Admitted: 20, Completed: 20, Shed: 3,
		Workers: 4, MaxBatch: 4, QueueP99: 40, ServiceP99: 70,
		BatchHistogram: []BatchBucket{{Le: 1, Count: 1}},
	}
	m := MergeSnapshots(a, b)
	if m.QueueDepth != 3 || m.Admitted != 30 || m.Completed != 28 || m.Rejected != 2 || m.Shed != 3 || m.Expired != 1 {
		t.Errorf("merged counters: %+v", m)
	}
	if m.Workers != 6 || m.MaxBatch != 8 {
		t.Errorf("merged config echo: workers %d, maxbatch %d", m.Workers, m.MaxBatch)
	}
	if m.QueueP99 != 100 || m.ServiceP99 != 70 {
		t.Errorf("merged percentiles should take the worst shard: %+v", m)
	}
	var le1 uint64
	for _, bb := range m.BatchHistogram {
		if bb.Le == 1 {
			le1 = bb.Count
		}
	}
	if le1 != 4 {
		t.Errorf("merged histogram le=1 count %d, want 4", le1)
	}
	if m.Merged != 2 {
		t.Errorf("merged count %d, want 2", m.Merged)
	}
	if z := MergeSnapshots(); z.Admitted != 0 || z.Merged != 0 {
		t.Errorf("empty merge: %+v", z)
	}
}

// TestMergeSnapshotsRecovery pins the recovery-record fold: interval lists
// concatenate, counters sum, and snapshots without a record neither produce
// one nor lose a sibling's.
func TestMergeSnapshotsRecovery(t *testing.T) {
	t0 := time.Now()
	a := Snapshot{Recovery: &RecoveryStats{
		DownIntervals: []DownInterval{{Replica: 0, Start: t0, End: t0.Add(time.Second)}},
		Rejoins:       1, ConnRedials: 3, Retries: 5, TransportDrops: 1,
	}}
	b := Snapshot{} // a shard that saw no faults carries no record
	c := Snapshot{Recovery: &RecoveryStats{
		DownIntervals: []DownInterval{{Replica: 1, Start: t0.Add(time.Minute)}},
		ConnRedials:   2, Retries: 1,
	}}
	m := MergeSnapshots(a, b, c)
	if m.Recovery == nil {
		t.Fatal("merge dropped the recovery records")
	}
	rec := m.Recovery
	if len(rec.DownIntervals) != 2 {
		t.Fatalf("merged %d intervals, want 2", len(rec.DownIntervals))
	}
	if rec.Rejoins != 1 || rec.ConnRedials != 5 || rec.Retries != 6 || rec.TransportDrops != 1 {
		t.Errorf("merged recovery counters: %+v", rec)
	}
	if !rec.DownIntervals[1].End.IsZero() {
		t.Error("open interval lost its open end in the merge")
	}
	// The inputs' records are not aliased into the output.
	a.Recovery.ConnRedials = 100
	if m.Recovery.ConnRedials != 5 {
		t.Error("merged record aliases an input's record")
	}
	if m2 := MergeSnapshots(b, Snapshot{}); m2.Recovery != nil {
		t.Error("merging recovery-free snapshots invented a record")
	}
}

// TestMultiModelConfigValidation pins the config rules.
func TestMultiModelConfigValidation(t *testing.T) {
	if _, err := New(Config{Store: indexStore{}}); err == nil {
		t.Error("no engines: expected error")
	}
	if _, err := New(Config{Store: indexStore{}, Models: []ModelConfig{{Name: "", Engine: &echoEngine{}}}}); err == nil {
		t.Error("unnamed Models entry: expected error")
	}
	if _, err := New(Config{Store: indexStore{}, Models: []ModelConfig{
		{Name: "dup", Engine: &echoEngine{}},
		{Name: "dup", Engine: &echoEngine{}},
	}}); err == nil {
		t.Error("duplicate model id: expected error")
	}
	if _, err := New(Config{Models: []ModelConfig{{Name: "nostore", Engine: &echoEngine{}}}}); err == nil {
		t.Error("model without a store: expected error")
	}
}

// TestUnknownModelMetricsAnswered: a metrics request naming an unknown model
// is answered with an in-band error — the connection survives and keeps
// serving routable traffic (a misaddressed client must not lose its conn).
func TestUnknownModelMetricsAnswered(t *testing.T) {
	s := newTestServer(t, Config{
		Store:    indexStore{},
		Models:   []ModelConfig{{Name: "solo", Engine: &offsetEngine{offset: 0}}},
		MaxBatch: 2, BatchWait: time.Millisecond,
	})
	tc := dialTest(t, s.Addr())
	tc.mu.Lock()
	err := WriteMetricsRequest(tc.c, 7, "nope")
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := ReadClientFrame(tc.r)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != MsgMetrics || frame.MetricsID != 7 {
		t.Fatalf("frame type %d id %d, want metrics id 7", frame.Type, frame.MetricsID)
	}
	var snap Snapshot
	if err := json.Unmarshal(frame.MetricsJSON, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Error == "" || snap.Model != "nope" {
		t.Errorf("unknown-model snapshot: %+v, want in-band error", snap)
	}
	// The connection is still alive and serving.
	tc.predictModel(1, 5, "solo")
	if resp := tc.read(1)[1]; resp.Status != StatusOK {
		t.Errorf("post-error request: %v, want ok", resp.Status)
	}
}

// TestModelPolicyOverridesServerDefault: a model can pick RejectNewest even
// when the server-wide default is ShedOldest (PolicyDefault inherits).
func TestModelPolicyOverridesServerDefault(t *testing.T) {
	cfg := Config{
		Store:  indexStore{},
		Policy: ShedOldest,
		Models: []ModelConfig{
			{Name: "explicit", Engine: &echoEngine{}, Policy: RejectNewest},
			{Name: "inherit", Engine: &echoEngine{}},
		},
	}
	models, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ModelConfig, len(models))
	for _, m := range models {
		byName[m.Name] = m
	}
	if byName["explicit"].Policy != RejectNewest {
		t.Errorf("explicit RejectNewest resolved to %v", byName["explicit"].Policy)
	}
	if byName["inherit"].Policy != ShedOldest {
		t.Errorf("PolicyDefault resolved to %v, want inherited ShedOldest", byName["inherit"].Policy)
	}
	zero := Config{Engine: &echoEngine{}, Store: indexStore{}}
	models, err = zero.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if models[0].Policy != RejectNewest {
		t.Errorf("zero-value config policy resolved to %v, want RejectNewest", models[0].Policy)
	}
}

// TestNormalizeRejectsOutOfRangeLimits: Workers, QueueDepth and MaxBatch
// must lie in [0, 1<<16] on the server-wide Config and on every
// ModelConfig (0 derives the default). Only normalize runs, so no pool of an
// absurd size is ever started.
func TestNormalizeRejectsOutOfRangeLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero derives defaults", Config{}, true},
		{"at ceiling", Config{Workers: 1 << 16, QueueDepth: 1 << 16, MaxBatch: 1 << 16}, true},
		{"negative workers", Config{Workers: -1}, false},
		{"negative queue", Config{QueueDepth: -1}, false},
		{"negative max batch", Config{MaxBatch: -1}, false},
		{"absurd workers", Config{Workers: 1<<16 + 1}, false},
		{"absurd queue", Config{QueueDepth: 1 << 20}, false},
		{"absurd max batch", Config{MaxBatch: 1<<16 + 1}, false},
		{"model negative workers", Config{Models: []ModelConfig{{Name: "m", Workers: -1}}}, false},
		{"model absurd queue", Config{Models: []ModelConfig{{Name: "m", QueueDepth: 1 << 20}}}, false},
		{"model absurd max batch", Config{Models: []ModelConfig{{Name: "m", MaxBatch: 1<<16 + 1}}}, false},
		{"model at ceiling", Config{Models: []ModelConfig{{Name: "m", Workers: 1 << 16, QueueDepth: 1 << 16, MaxBatch: 1 << 16}}}, true},
	} {
		cfg := tc.cfg
		cfg.Store = indexStore{}
		if cfg.Models == nil {
			cfg.Engine = &echoEngine{}
		}
		for i := range cfg.Models {
			cfg.Models[i].Engine = &echoEngine{}
		}
		if _, err := cfg.normalize(); (err == nil) != tc.ok {
			t.Errorf("%s: normalize err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestMergeSnapshotsFleetSizeChange covers merging replicas of different
// sizes: counters and limits sum, and a banked epoch (the counters a replica
// held when its connection epoch ended) contributes exactly once.
func TestMergeSnapshotsFleetSizeChange(t *testing.T) {
	r0 := Snapshot{Admitted: 100, Completed: 100, Workers: 4, QueueLimit: 32}
	// Replica 1's last epoch was banked with the counters it had when the
	// epoch ended. It contributes once — there is no live snapshot to double
	// it with.
	banked := Snapshot{Admitted: 40, Completed: 40, Workers: 2, QueueLimit: 16}
	r2 := Snapshot{Admitted: 25, Completed: 25, Workers: 2, QueueLimit: 16}
	m := MergeSnapshots(r0, banked, r2)
	if m.Admitted != 165 || m.Completed != 165 {
		t.Fatalf("merged counters: %+v", m)
	}
	if m.Workers != 8 || m.QueueLimit != 64 {
		t.Errorf("merged limits: workers %d queue %d", m.Workers, m.QueueLimit)
	}
	if m.Merged != 3 {
		t.Errorf("merged count %d, want 3", m.Merged)
	}
	// Merging the merge again must not re-count anything.
	again := MergeSnapshots(m)
	if again.Admitted != 165 || again.Workers != 8 || again.QueueLimit != 64 || again.Merged != 3 {
		t.Errorf("re-merge changed fold: %+v", again)
	}
}

// TestMergeSnapshotsKeepsKernelConfig: merged snapshots keep the first
// non-nil kernel config (one deployment, one binary) and copy it rather than
// aliasing the input.
func TestMergeSnapshotsKeepsKernelConfig(t *testing.T) {
	a := Snapshot{Kernel: &tensor.KernelConfig{SIMD: "avx2", FlopThreshold: 1 << 20, PanelBytes: 192 << 10}}
	b := Snapshot{Kernel: &tensor.KernelConfig{SIMD: "off"}}
	m := MergeSnapshots(Snapshot{}, a, b)
	if m.Kernel == nil || m.Kernel.SIMD != "avx2" {
		t.Fatalf("merged kernel = %+v, want first non-nil (avx2)", m.Kernel)
	}
	a.Kernel.SIMD = "mutated"
	if m.Kernel.SIMD != "avx2" {
		t.Error("merged kernel aliases its input")
	}
}
