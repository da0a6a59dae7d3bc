package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlperf/internal/tensor"
)

// TestResizeGrowsWorkersLive proves worker growth takes effect while the
// server is serving: with one gated worker, two requests serialize; after
// growing to two workers, two requests proceed concurrently.
func TestResizeGrowsWorkersLive(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Engine: &echoEngine{gate: gate}, Workers: 1, MaxBatch: 1,
		BatchWait: time.Millisecond, QueueDepth: 16,
	})
	tc := dialTest(t, s.Addr())

	events, err := s.Resize("", ResizeRequest{Workers: 2, Reason: "test-grow"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Resource != ResourceWorkers || events[0].From != 1 || events[0].To != 2 {
		t.Fatalf("grow events: %+v", events)
	}

	// Two single-sample batches need two workers to block on the gate at
	// once; with one worker the second release would deadlock this test's
	// sequential gate feed.
	tc.predict(1, 0, time.Time{})
	tc.predict(2, 1, time.Time{})
	done := make(chan struct{})
	go func() {
		gate <- struct{}{}
		gate <- struct{}{}
		close(done)
	}()
	resp := tc.read(2)
	<-done
	if resp[1].Status != StatusOK || resp[2].Status != StatusOK {
		t.Fatalf("responses: %+v", resp)
	}

	lim, err := s.Limits("")
	if err != nil {
		t.Fatal(err)
	}
	if lim.Workers != 2 {
		t.Fatalf("live workers %d, want 2", lim.Workers)
	}
}

// TestResizeShrinkRetiresAtBatchBoundary pins the shrink protocol: surplus
// workers retire only after finishing their current batch, and the pool
// keeps serving afterwards.
func TestResizeShrinkRetiresAtBatchBoundary(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxBatch: 1, BatchWait: time.Millisecond})
	tc := dialTest(t, s.Addr())

	events, err := s.Resize("", ResizeRequest{Workers: 1, Reason: "test-shrink"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].From != 4 || events[0].To != 1 {
		t.Fatalf("shrink events: %+v", events)
	}
	// The pool still answers: every request after the shrink is served by
	// whatever workers remain (surplus ones retire at their next batch).
	for i := 0; i < 8; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	resp := tc.read(8)
	for id, r := range resp {
		if r.Status != StatusOK {
			t.Fatalf("request %d: status %d", id, r.Status)
		}
	}
	if lim, _ := s.Limits(""); lim.Workers != 1 {
		t.Fatalf("live workers %d, want 1", lim.Workers)
	}
}

// TestResizeQueueAndMaxBatch moves the admission bound and batch cap and
// checks the new queue bound actually rejects. A long BatchWait keeps
// admitted requests sitting in the queue (the batcher is waiting to fill a
// batch), so the shrunken bound is what the next arrival hits.
func TestResizeQueueAndMaxBatch(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 8, BatchWait: 10 * time.Second, QueueDepth: 64,
	})
	tc := dialTest(t, s.Addr())
	if _, err := s.Resize("", ResizeRequest{QueueDepth: 1, MaxBatch: 2, Reason: "test"}); err != nil {
		t.Fatal(err)
	}
	if lim, _ := s.Limits(""); lim.QueueDepth != 1 || lim.MaxBatch != 2 {
		t.Fatalf("limits after resize: %+v", lim)
	}
	tc.predict(1, 0, time.Time{})
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request 1 never queued")
		}
		time.Sleep(time.Millisecond)
	}
	tc.predict(2, 1, time.Time{}) // queue already at its shrunken bound
	resp := tc.read(1)
	if resp[2].Status != StatusRejected {
		t.Fatalf("request 2 status %d, want rejected (queue bound not live)", resp[2].Status)
	}
	tc.control(MsgFlush) // flush the held batch so request 1 completes
	resp = tc.read(1)
	if resp[1].Status != StatusOK {
		t.Fatalf("request 1 status %d, want OK", resp[1].Status)
	}
}

// TestResizeValidation pins the guard rails: out-of-range limits and unknown
// models error; zero fields leave limits untouched; draining servers ignore
// resizes.
func TestResizeValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, MaxBatch: 2, BatchWait: time.Millisecond})
	if _, err := s.Resize("", ResizeRequest{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := s.Resize("", ResizeRequest{QueueDepth: 1 << 20}); err == nil {
		t.Error("absurd queue depth accepted")
	}
	if _, err := s.Resize("nope", ResizeRequest{Workers: 1}); err == nil {
		t.Error("unknown model accepted")
	}
	before, _ := s.Limits("")
	if events, err := s.Resize("", ResizeRequest{}); err != nil || len(events) != 0 {
		t.Errorf("no-op resize: events %v err %v", events, err)
	}
	if after, _ := s.Limits(""); after != before {
		t.Errorf("no-op resize moved limits: %+v -> %+v", before, after)
	}
	s.Drain()
	if events, _ := s.Resize("", ResizeRequest{Workers: 8}); len(events) != 0 {
		t.Errorf("draining server applied a resize: %v", events)
	}
}

// TestResizeEventsChain pins the audit invariant: per resource, each event's
// From equals the previous event's To, and the chain's end matches the live
// snapshot.
func TestResizeEventsChain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatch: 1, BatchWait: time.Millisecond, QueueDepth: 8})
	for _, w := range []int{2, 4, 3} {
		if _, err := s.Resize("", ResizeRequest{Workers: w, QueueDepth: w * 8, Reason: "step"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics()
	last := map[string]int{}
	for i, e := range snap.Resizes {
		if prev, ok := last[e.Resource]; ok && e.From != prev {
			t.Fatalf("event %d (%s) starts at %d, previous ended at %d", i, e.Resource, e.From, prev)
		}
		last[e.Resource] = e.To
	}
	if last[ResourceWorkers] != snap.Workers {
		t.Errorf("worker chain ends at %d, snapshot says %d", last[ResourceWorkers], snap.Workers)
	}
	if last[ResourceQueue] != snap.QueueLimit {
		t.Errorf("queue chain ends at %d, snapshot says %d", last[ResourceQueue], snap.QueueLimit)
	}
}

// TestMergeSnapshotsFleetSizeChange covers merging over a fleet that changed
// size mid-run: a retired replica contributes its banked epoch exactly once,
// and resize events concatenate without aliasing the inputs.
func TestMergeSnapshotsFleetSizeChange(t *testing.T) {
	t0 := time.Now()
	// Replica 0 ran the whole time and grew its pool.
	r0 := Snapshot{
		Admitted: 100, Completed: 100, Workers: 4, QueueLimit: 32,
		Resizes: []ResizeEvent{
			{Time: t0, Resource: ResourceWorkers, From: 2, To: 4, Reason: "capacity-grow"},
			{Time: t0, Resource: ResourceQueue, From: 16, To: 32, Reason: "capacity-grow"},
		},
	}
	// Replica 1 was retired mid-run: its last epoch was banked with the
	// counters it had at retirement. It contributes once — there is no live
	// snapshot to double it with.
	banked := Snapshot{Admitted: 40, Completed: 40, Workers: 2, QueueLimit: 16}
	// Replica 2 was spawned mid-run by the autoscaler.
	r2 := Snapshot{
		Admitted: 25, Completed: 25, Workers: 2, QueueLimit: 16,
		Resizes: []ResizeEvent{
			{Time: t0, Resource: ResourceWorkers, From: 1, To: 2, Reason: "capacity-initial"},
		},
	}
	m := MergeSnapshots(r0, banked, r2)
	if m.Admitted != 165 || m.Completed != 165 {
		t.Fatalf("merged counters: %+v", m)
	}
	if m.Workers != 8 || m.QueueLimit != 64 {
		t.Errorf("merged limits: workers %d queue %d", m.Workers, m.QueueLimit)
	}
	if len(m.Resizes) != 3 {
		t.Fatalf("merged %d resize events, want 3 (each input's folded exactly once)", len(m.Resizes))
	}
	if m.Merged != 3 {
		t.Errorf("merged count %d, want 3", m.Merged)
	}
	// Merging the merge with a later epoch must not re-count events, and the
	// merged event list must not alias the inputs' slices.
	m.Resizes[0].To = 999
	if r0.Resizes[0].To == 999 {
		t.Error("merged resize events alias the input's slice")
	}
	again := MergeSnapshots(m)
	if len(again.Resizes) != 3 || again.Merged != 3 {
		t.Errorf("re-merge changed fold: %d events, merged %d", len(again.Resizes), again.Merged)
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

// promValues parses a Prometheus text page into metric{labels} -> value.
func promValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestPrometheusEndpointMatchesWireMetrics drives traffic, fetches the
// metrics snapshot over the wire protocol, scrapes the HTTP endpoint, and
// asserts the scraped counters equal the wire-fetched ones — the external
// scraper and the conformance audit must see the same numbers.
func TestPrometheusEndpointMatchesWireMetrics(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, MaxBatch: 2, BatchWait: time.Millisecond,
		QueueDepth: 8, MetricsAddr: "127.0.0.1:0",
	})
	if s.MetricsAddr() == "" {
		t.Fatal("metrics endpoint not bound")
	}
	if _, err := s.Resize("", ResizeRequest{Workers: 3, Reason: "test"}); err != nil {
		t.Fatal(err)
	}
	tc := dialTest(t, s.Addr())
	for i := 0; i < 10; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	tc.read(10)

	// Wire-fetched snapshot (the same frames backend.Remote uses).
	tc.mu.Lock()
	err := WriteMetricsRequest(tc.c, 42, "")
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := ReadClientFrame(tc.r)
	if err != nil {
		t.Fatal(err)
	}
	var wire Snapshot
	if err := json.Unmarshal(frame.MetricsJSON, &wire); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := promValues(t, string(body))

	for name, want := range map[string]uint64{
		`mlperf_serve_admitted_total{model="default"}`:      wire.Admitted,
		`mlperf_serve_completed_total{model="default"}`:     wire.Completed,
		`mlperf_serve_rejected_total{model="default"}`:      wire.Rejected,
		`mlperf_serve_expired_total{model="default"}`:       wire.Expired,
		`mlperf_serve_errors_total{model="default"}`:        wire.Errors,
		`mlperf_serve_resize_events_total{model="default"}`: uint64(len(wire.Resizes)),
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("scrape lacks %s\n%s", name, body)
			continue
		}
		if uint64(got) != want {
			t.Errorf("%s = %v, scraped vs wire %d", name, got, want)
		}
	}
	for name, want := range map[string]int{
		`mlperf_serve_workers{model="default"}`:     wire.Workers,
		`mlperf_serve_queue_limit{model="default"}`: wire.QueueLimit,
		`mlperf_serve_max_batch{model="default"}`:   wire.MaxBatch,
	} {
		if got := vals[name]; int(got) != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	// Histogram buckets must be cumulative and end at the wire total.
	var batches uint64
	for _, b := range wire.BatchHistogram {
		batches += b.Count
	}
	if got := vals[`mlperf_serve_batch_size_count{model="default"}`]; uint64(got) != batches {
		t.Errorf("batch_size_count %v, wire says %d", got, batches)
	}
	if got := vals[`mlperf_serve_batch_size_bucket{model="default",le="+Inf"}`]; uint64(got) != batches {
		t.Errorf("+Inf bucket %v, want cumulative total %d", got, batches)
	}

	// The kernel configuration rides both channels: the wire snapshot carries
	// it as a struct, the scrape as mlperf_kernel_* families, and they must
	// agree with the live tensor dispatch state.
	kc := tensor.CurrentKernelConfig()
	if wire.Kernel == nil {
		t.Fatal("wire snapshot lacks kernel config")
	}
	if *wire.Kernel != kc {
		t.Errorf("wire kernel config %+v, want %+v", *wire.Kernel, kc)
	}
	if got, ok := vals[`mlperf_kernel_info{simd="`+kc.SIMD+`"}`]; !ok || got != 1 {
		t.Errorf("scrape lacks mlperf_kernel_info{simd=%q}\n%s", kc.SIMD, body)
	}
	if got := vals["mlperf_kernel_flop_threshold"]; int(got) != kc.FlopThreshold {
		t.Errorf("mlperf_kernel_flop_threshold = %v, want %d", got, kc.FlopThreshold)
	}
	if got := vals["mlperf_kernel_panel_bytes"]; int(got) != kc.PanelBytes {
		t.Errorf("mlperf_kernel_panel_bytes = %v, want %d", got, kc.PanelBytes)
	}
	if _, ok := vals["mlperf_kernel_calibrated"]; !ok {
		t.Errorf("scrape lacks mlperf_kernel_calibrated")
	}

	// Registered extra sources ride the same endpoint.
	s.OnScrape(func(w io.Writer) { fmt.Fprintln(w, "mlperf_test_extra 7") })
	resp2, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if vals2 := promValues(t, string(body2)); vals2["mlperf_test_extra"] != 7 {
		t.Errorf("registered scrape source missing:\n%s", body2)
	}
}
