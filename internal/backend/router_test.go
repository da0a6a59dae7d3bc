package backend

import (
	"testing"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
)

// startFleet launches n identical loopback serve.Servers plus a Remote
// fanning out over all of them.
func startFleet(t testing.TB, n int, scfg serve.Config, rcfg RemoteConfig) ([]*serve.Server, *Remote) {
	t.Helper()
	var (
		servers []*serve.Server
		addrs   []string
	)
	for i := 0; i < n; i++ {
		srv, err := serve.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	rcfg.Addrs = addrs
	remote, err := NewRemote(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return servers, remote
}

// offlineAccuracyByIndex runs an Offline accuracy sweep and returns each
// sample's response payload keyed by sample index.
func offlineAccuracyByIndex(t *testing.T, sut loadgen.SUT, qsl *dataset.QSL) map[int][]byte {
	t.Helper()
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.Mode = loadgen.AccuracyMode
	settings.MinDuration = 0
	settings.MinSampleCount = 1
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
		t.Fatalf("offline accuracy sweep dropped %d responses", res.ResponsesDropped)
	}
	return out
}

// TestReplicaInvariance is the scale-out acceptance test: Server and Offline
// accuracy sweeps through 1, 2 and 4 loopback replicas must produce
// byte-identical per-sample payloads to the in-process backend.Native path —
// routing must never change what a sample answers, only who answers it.
func TestReplicaInvariance(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)

	native, err := NewNative(NativeConfig{Engine: engine, Store: qsl, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nativeServer := accuracyByIndex(t, native, qsl)
	nativeOffline := offlineAccuracyByIndex(t, native, qsl)
	native.Wait()
	if errs := native.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}

	for _, replicas := range []int{1, 2, 4} {
		servers, remote := startFleet(t, replicas,
			serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond},
			RemoteConfig{Conns: 2})

		for name, want := range map[string]map[int][]byte{
			"server":  nativeServer,
			"offline": nativeOffline,
		} {
			var got map[int][]byte
			if name == "server" {
				got = accuracyByIndex(t, remote, qsl)
			} else {
				got = offlineAccuracyByIndex(t, remote, qsl)
			}
			remote.Wait()
			if errs := remote.Errors(); len(errs) > 0 {
				t.Fatal(errs[0])
			}
			if len(got) != len(want) || len(got) != qsl.TotalSampleCount() {
				t.Fatalf("%d replicas %s: coverage %d, want %d", replicas, name, len(got), qsl.TotalSampleCount())
			}
			for idx, wantData := range want {
				if string(got[idx]) != string(wantData) {
					t.Errorf("%d replicas %s: sample %d: %q != native %q", replicas, name, idx, got[idx], wantData)
				}
			}
		}

		// The merged client-side view reconciles with the per-server truth.
		merged, err := remote.ServerMetrics()
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, srv := range servers {
			sum += srv.Metrics().Completed
		}
		if merged.Completed != sum {
			t.Errorf("%d replicas: merged completed %d != per-server sum %d", replicas, merged.Completed, sum)
		}
		snaps, err := remote.ReplicaMetrics()
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != replicas {
			t.Errorf("ReplicaMetrics returned %d snapshots, want %d", len(snaps), replicas)
		}
	}
}

// TestRouterSpreadsLoad: with least-in-flight routing, a saturating offline
// run must land work on every replica, and the per-replica completions must
// sum to the total.
func TestRouterSpreadsLoad(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	servers, remote := startFleet(t, 2,
		serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond},
		RemoteConfig{MaxInFlight: 16})

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
	var sum uint64
	for i, srv := range servers {
		snap := srv.Metrics()
		if snap.Completed == 0 {
			t.Errorf("replica %d served nothing — router did not spread the load", i)
		}
		sum += snap.Completed
	}
	if sum != uint64(res.SamplesCompleted) {
		t.Errorf("replicas served %d samples, loadgen counted %d", sum, res.SamplesCompleted)
	}
}

// TestReplicaDeathRoutesAround is the replica-lifecycle test: when one of two
// replicas dies mid-run, (a) everything pending on it settles as dropped so
// nothing hangs, (b) the router stops sending it traffic, and (c) the
// surviving replica keeps serving — so a degraded fleet still terminates with
// an invalid run and counted drops rather than a hang or a silent loss.
func TestReplicaDeathRoutesAround(t *testing.T) {
	servers, remote := startFleet(t, 2,
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
	drain := func(chans []chan []loadgen.Response) (ok, dropped int) {
		t.Helper()
		for i, ch := range chans {
			select {
			case rs := <-ch:
				if rs[0].Dropped {
					dropped++
				} else {
					ok++
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("query %d never completed after replica death", i+1)
			}
		}
		return ok, dropped
	}

	var before []chan []loadgen.Response
	for i := uint64(1); i <= 16; i++ {
		before = append(before, issue(i))
	}
	servers[0].Close() // replica 0 dies; its pending work settles as dropped
	_, _ = drain(before)

	// Wait until the router has marked the replica down (its connections fail
	// as soon as the closed server tears them down).
	deadline := time.Now().Add(10 * time.Second)
	for remote.DownReplicas() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica never marked down")
		}
		time.Sleep(time.Millisecond)
	}

	// New traffic routes around the dead replica: it must ALL complete OK on
	// the survivor, not just terminate.
	var after []chan []loadgen.Response
	for i := uint64(100); i < 132; i++ {
		after = append(after, issue(i))
	}
	ok, dropped := drain(after)
	if dropped != 0 || ok != 32 {
		t.Errorf("after death: %d ok, %d dropped — survivor should have served everything", ok, dropped)
	}
	if servers[1].Metrics().Completed == 0 {
		t.Error("surviving replica served nothing")
	}

	remote.Wait()
	if remote.DownReplicas() != 1 {
		t.Errorf("DownReplicas = %d, want 1", remote.DownReplicas())
	}
	if errs := remote.Errors(); len(errs) == 0 {
		t.Error("replica death recorded no errors")
	}
	// The merged metrics still answer from the survivor.
	if _, err := remote.ServerMetrics(); err != nil {
		t.Errorf("merged metrics after replica death: %v", err)
	}
}

// TestRemoteModelAddressedFleet: a model-addressed Remote against a fleet of
// multi-model servers routes by model id on every replica.
func TestRemoteModelAddressedFleet(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	_, remote := startFleet(t, 2,
		serve.Config{
			Store: qsl,
			Models: []serve.ModelConfig{
				{Name: "mobilenet", Engine: engine},
			},
			BatchWait: time.Millisecond,
		},
		RemoteConfig{Model: "mobilenet"})

	native, err := NewNative(NativeConfig{Engine: engine, Store: qsl, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := accuracyByIndex(t, native, qsl)
	got := accuracyByIndex(t, remote, qsl)
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	for idx, wantData := range want {
		if string(got[idx]) != string(wantData) {
			t.Errorf("sample %d: model-addressed fleet %q != native %q", idx, got[idx], wantData)
		}
	}
	snap, err := remote.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Completed != uint64(len(want)) {
		t.Errorf("merged model metrics completed %d, want %d", snap.Completed, len(want))
	}
}
