package backend

import (
	"testing"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/serve"
	"mlperf/internal/tensor"
)

// buildMobileNetStack assembles a MobileNet engine, synthetic data set
// and QSL for the loopback serving tests.
func buildMobileNetStack(t testing.TB) (model.Engine, *dataset.QSL) {
	t.Helper()
	m, err := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Samples: 32, Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		t.Fatal(err)
	}
	return m, qsl
}

// startLoopback launches a serve.Server plus a connected Remote for it.
func startLoopback(t testing.TB, scfg serve.Config, rcfg RemoteConfig) (*serve.Server, *Remote) {
	t.Helper()
	srv, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rcfg.Addr = srv.Addr()
	remote, err := NewRemote(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return srv, remote
}

// accuracyByIndex runs a Server-scenario accuracy sweep and returns each
// sample's response payload keyed by sample index.
func accuracyByIndex(t *testing.T, sut loadgen.SUT, qsl *dataset.QSL) map[int][]byte {
	t.Helper()
	settings := loadgen.DefaultSettings(loadgen.Server)
	settings.Mode = loadgen.AccuracyMode
	settings.ServerTargetQPS = 5000
	settings.MinDuration = 0
	settings.MinQueryCount = 1
	out := make(map[int][]byte)
	settings.AccuracySink = func(e loadgen.AccuracyEntry) {
		data := make([]byte, len(e.Data))
		copy(data, e.Data)
		out[e.SampleIndex] = data
	}
	res, err := loadgen.StartTest(sut, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponsesDropped != 0 {
		t.Fatalf("accuracy sweep dropped %d responses", res.ResponsesDropped)
	}
	return out
}

// TestRemoteBitIdenticalToNative is the tentpole acceptance test: a
// Server-scenario sweep through backend.Remote against a loopback
// serve.Server must produce byte-identical per-sample outputs to the
// in-process backend.Native path.
func TestRemoteBitIdenticalToNative(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)

	native, err := NewNative(NativeConfig{Engine: engine, Store: qsl, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nativeOut := accuracyByIndex(t, native, qsl)
	native.Wait()
	if errs := native.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}

	_, remote := startLoopback(t,
		serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond},
		RemoteConfig{Conns: 2})
	remoteOut := accuracyByIndex(t, remote, qsl)
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}

	if len(remoteOut) != len(nativeOut) || len(remoteOut) != qsl.TotalSampleCount() {
		t.Fatalf("coverage: native %d, remote %d, want %d", len(nativeOut), len(remoteOut), qsl.TotalSampleCount())
	}
	for idx, want := range nativeOut {
		got, ok := remoteOut[idx]
		if !ok {
			t.Fatalf("sample %d missing from the remote sweep", idx)
		}
		if string(got) != string(want) {
			t.Errorf("sample %d: remote %q != native %q", idx, got, want)
		}
	}
}

// TestRemoteServerScenarioValid: a provisioned loopback server sustains a
// modest Server-scenario load with a valid run.
func TestRemoteServerScenarioValid(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	_, remote := startLoopback(t,
		serve.Config{Engine: engine, Store: qsl, BatchWait: time.Millisecond},
		RemoteConfig{})

	settings := loadgen.DefaultSettings(loadgen.Server)
	settings.MinQueryCount = 64
	settings.MinDuration = 100 * time.Millisecond
	settings.ServerTargetQPS = 200
	settings.ServerTargetLatency = 250 * time.Millisecond
	res, err := loadgen.StartTest(remote, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if !res.Valid {
		t.Fatalf("run invalid: %v", res.ValidityMessages)
	}
	if res.ResponsesDropped != 0 || remote.Rejected() != 0 {
		t.Errorf("dropped %d, rejected %d on a provisioned server", res.ResponsesDropped, remote.Rejected())
	}
	snap, err := remote.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Completed == 0 || snap.ServiceP99 <= 0 {
		t.Errorf("server metrics not populated: %+v", snap)
	}
}

// TestRemoteOfflineScenario: the offline scenario's single merged query
// streams through the bounded server queue under client flow control without
// a single reject.
func TestRemoteOfflineScenario(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	_, remote := startLoopback(t,
		serve.Config{Engine: engine, Store: qsl, QueueDepth: 64, BatchWait: time.Millisecond},
		RemoteConfig{MaxInFlight: 32})

	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 512
	settings.MinDuration = 0
	res, err := loadgen.StartTest(remote, qsl, settings)
	if err != nil {
		t.Fatal(err)
	}
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if !res.Valid {
		t.Fatalf("offline run invalid: %v", res.ValidityMessages)
	}
	if res.SamplesCompleted != res.SamplesIssued {
		t.Errorf("completed %d of %d samples", res.SamplesCompleted, res.SamplesIssued)
	}
	if remote.Rejected() != 0 {
		t.Errorf("%d rejects despite client flow control", remote.Rejected())
	}
}

// slowEngine simulates an under-provisioned accelerator: fixed service time
// per batch regardless of batch size.
type slowEngine struct {
	delay time.Duration
}

func (e *slowEngine) Name() string       { return "slow" }
func (e *slowEngine) Kind() dataset.Kind { return dataset.KindImageClassification }

func (e *slowEngine) Predict(samples []*dataset.Sample, _ *tensor.Scratch) ([]model.Output, error) {
	time.Sleep(e.delay)
	out := make([]model.Output, len(samples))
	for i, s := range samples {
		out[i] = model.Output{Kind: dataset.KindImageClassification, Class: s.Index}
	}
	return out, nil
}

type fixedStore struct{}

func (fixedStore) Get(index int) (*dataset.Sample, error) {
	return &dataset.Sample{Index: index}, nil
}

// TestRemoteOverloadReportsInvalidRun is the overload satellite: a
// Server-scenario run against a deliberately under-provisioned serve
// instance must terminate (not hang), count its rejects, and be reported
// invalid — shed load is never silent.
func TestRemoteOverloadReportsInvalidRun(t *testing.T) {
	srv, remote := startLoopback(t,
		serve.Config{
			Engine: &slowEngine{delay: 5 * time.Millisecond}, Store: fixedStore{},
			Workers: 1, QueueDepth: 4, MaxBatch: 2, BatchWait: 100 * time.Microsecond,
			Policy: serve.RejectNewest,
		},
		RemoteConfig{MaxInFlight: 512})

	qsl, err := dataset.NewQSL(mustImages(t))
	if err != nil {
		t.Fatal(err)
	}
	settings := loadgen.DefaultSettings(loadgen.Server)
	settings.MinQueryCount = 200
	settings.MinDuration = 50 * time.Millisecond
	settings.ServerTargetQPS = 4000 // far beyond ~400/s of service capacity
	settings.ServerTargetLatency = 5 * time.Millisecond

	done := make(chan struct{})
	var res *loadgen.Result
	go func() {
		defer close(done)
		res, err = loadgen.StartTest(remote, qsl, settings)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("overloaded run hung instead of terminating")
	}
	if err != nil {
		t.Fatal(err)
	}
	remote.Wait()

	if res.Valid {
		t.Error("overloaded run reported valid")
	}
	if res.ResponsesDropped == 0 {
		t.Error("no dropped responses counted")
	}
	if remote.Rejected() == 0 {
		t.Error("client counted no rejects")
	}
	if res.QueriesCompleted != res.QueriesIssued {
		t.Errorf("only %d of %d queries completed", res.QueriesCompleted, res.QueriesIssued)
	}
	snap := srv.Metrics()
	if snap.Rejected == 0 {
		t.Error("server metrics counted no rejects")
	}
	if int64(snap.Rejected) != remote.Rejected() {
		t.Errorf("server rejected %d, client observed %d", snap.Rejected, remote.Rejected())
	}
	found := false
	for _, msg := range res.ValidityMessages {
		if len(msg) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no validity messages explaining the invalid run")
	}
}

func mustImages(t testing.TB) *dataset.SyntheticImages {
	t.Helper()
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Samples: 32, Classes: 10, Channels: 3, Height: 8, Width: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRemoteServerDeathDoesNotHang: queries issued around and after the
// server going away must all complete (as dropped) rather than hang — on a
// dead connection the client settles locally.
func TestRemoteServerDeathDoesNotHang(t *testing.T) {
	srv, remote := startLoopback(t,
		serve.Config{
			Engine: &slowEngine{delay: 2 * time.Millisecond}, Store: fixedStore{},
			Workers: 1, MaxBatch: 1, BatchWait: 100 * time.Microsecond,
		},
		RemoteConfig{Conns: 2, MaxInFlight: 64})

	issue := func(id uint64) chan []loadgen.Response {
		q := &loadgen.Query{ID: id, Samples: []loadgen.QuerySample{{ID: id, Index: int(id)}}}
		ch := make(chan []loadgen.Response, 1)
		q.SetCompletionHandler(func(_ *loadgen.Query, rs []loadgen.Response) { ch <- rs })
		remote.IssueQuery(q)
		return ch
	}
	var chans []chan []loadgen.Response
	for i := uint64(1); i <= 8; i++ {
		chans = append(chans, issue(i))
	}
	srv.Close() // server drains what it admitted, then the conns die
	for i := uint64(9); i <= 16; i++ {
		chans = append(chans, issue(i))
	}
	var dropped int
	for i, ch := range chans {
		select {
		case rs := <-ch:
			if rs[0].Dropped {
				dropped++
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("query %d never completed after server death", i+1)
		}
	}
	done := make(chan struct{})
	go func() { remote.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Remote.Wait hung after server death")
	}
	if dropped == 0 {
		t.Error("no queries dropped despite the server dying mid-run")
	}
}

// TestRemoteDeadlineExpiry: requests stamped with a client deadline expire
// server-side under load instead of being served late.
func TestRemoteDeadlineExpiry(t *testing.T) {
	_, remote := startLoopback(t,
		serve.Config{
			Engine: &slowEngine{delay: 20 * time.Millisecond}, Store: fixedStore{},
			Workers: 1, QueueDepth: 64, MaxBatch: 1, BatchWait: 100 * time.Microsecond,
		},
		RemoteConfig{Deadline: 10 * time.Millisecond, MaxInFlight: 64})

	// Enough back-to-back queries that later ones must expire while queued
	// behind 20ms services with a 10ms deadline.
	const n = 8
	queries := make([]*loadgen.Query, n)
	results := make([]chan []loadgen.Response, n)
	for i := range queries {
		q := &loadgen.Query{ID: uint64(i), Samples: []loadgen.QuerySample{{ID: uint64(i), Index: i}}}
		ch := make(chan []loadgen.Response, 1)
		q.SetCompletionHandler(func(_ *loadgen.Query, rs []loadgen.Response) { ch <- rs })
		queries[i], results[i] = q, ch
		remote.IssueQuery(q)
	}
	remote.FlushQueries()
	var dropped int
	for i, ch := range results {
		select {
		case rs := <-ch:
			if rs[0].Dropped {
				dropped++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d never completed", i)
		}
	}
	remote.Wait()
	if dropped == 0 {
		t.Error("no deadline expiries under sustained overload")
	}
	if remote.Expired() == 0 {
		t.Error("client counted no expired requests")
	}
}
