package backend

import (
	"testing"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
	"mlperf/internal/stats"
)

// offlineSettings returns a small Offline run that issues exactly n samples.
func offlineSettings(n int) loadgen.TestSettings {
	s := loadgen.DefaultSettings(loadgen.Offline)
	s.MinSampleCount = n
	s.MinDuration = 0
	return s
}

// TestReplicaMetricsAcrossEpochs pins the epoch-merge accounting: a replica
// that crashes and rejoins must report the sum of its pre-crash epoch's last
// known counters and the restarted server's live counters — each epoch counted
// exactly once, neither erased by the restart nor double counted.
func TestReplicaMetricsAcrossEpochs(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	scfg := serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond}
	srv, remote := startLoopback(t, scfg, RemoteConfig{
		RedialInitial: time.Millisecond, RedialMax: 10 * time.Millisecond, RecoverySeed: 5,
	})
	addr := srv.Addr()

	res, err := loadgen.StartTest(remote, qsl, offlineSettings(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponsesDropped != 0 {
		t.Fatalf("run 1 dropped %d responses", res.ResponsesDropped)
	}
	remote.Wait()

	// Bank the first epoch's counters in the client (ReplicaMetrics refreshes
	// lastSnap), then crash the server. The server completes requests before
	// writing responses, but poll anyway in case the final count lags.
	deadline := time.Now().Add(5 * time.Second)
	var before serve.Snapshot
	for time.Now().Before(deadline) {
		snaps, err := remote.ReplicaMetrics()
		if err != nil {
			t.Fatal(err)
		}
		before = snaps[0]
		if before.Completed >= 64 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if before.Completed != 64 {
		t.Fatalf("epoch 1 completed %d of 64", before.Completed)
	}

	if err := srv.Kill(); err != nil {
		t.Fatal(err)
	}
	for remote.DownReplicas() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if remote.DownReplicas() != 1 {
		t.Fatal("replica not marked down after kill")
	}

	// While down, the banked epoch still answers for the replica.
	snaps, err := remote.ReplicaMetrics()
	if err != nil {
		t.Fatalf("metrics with banked epoch only: %v", err)
	}
	if snaps[0].Completed != 64 {
		t.Fatalf("banked epoch reports %d completed, want 64", snaps[0].Completed)
	}

	cfg := scfg
	cfg.Addr = addr
	restarted, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	for remote.DownReplicas() == 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if remote.DownReplicas() != 0 {
		t.Fatal("restarted replica never rejoined")
	}

	res, err = loadgen.StartTest(remote, qsl, offlineSettings(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponsesDropped != 0 {
		t.Fatalf("run 2 dropped %d responses", res.ResponsesDropped)
	}
	remote.Wait()

	var after serve.Snapshot
	for time.Now().Before(deadline) {
		snaps, err := remote.ReplicaMetrics()
		if err != nil {
			t.Fatal(err)
		}
		after = snaps[0]
		if after.Completed >= 128 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if after.Completed != 128 {
		t.Fatalf("epochs merged to %d completed, want exactly 128 (64 banked + 64 live)", after.Completed)
	}
	if after.Admitted != 128 {
		t.Fatalf("epochs merged to %d admitted, want exactly 128", after.Admitted)
	}

	// The merged server view carries the recovery record with one closed
	// interval for the crash.
	merged, err := remote.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Recovery == nil {
		t.Fatal("merged snapshot carries no recovery record")
	}
	rec := merged.Recovery
	if rec.Rejoins != 1 || len(rec.DownIntervals) != 1 {
		t.Fatalf("recovery record: %+v, want 1 rejoin with 1 interval", rec)
	}
	if iv := rec.DownIntervals[0]; iv.End.IsZero() || iv.End.Before(iv.Start) {
		t.Fatalf("malformed closed interval: %+v", iv)
	}
}

// TestDownReplicasOpenInterval pins the still-down reporting: a replica that
// has not rejoined contributes an open interval (zero End) to Recovery and
// counts in DownReplicas.
func TestDownReplicasOpenInterval(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	srv, remote := startLoopback(t,
		serve.Config{Engine: engine, Store: qsl, Workers: 1},
		RemoteConfig{RedialInitial: time.Millisecond, RedialMax: 5 * time.Millisecond})
	if err := srv.Kill(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for remote.DownReplicas() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if remote.DownReplicas() != 1 {
		t.Fatal("replica not marked down")
	}
	rec := remote.Recovery()
	if len(rec.DownIntervals) != 1 {
		t.Fatalf("want 1 open interval, got %+v", rec.DownIntervals)
	}
	if iv := rec.DownIntervals[0]; !iv.End.IsZero() || iv.Start.IsZero() {
		t.Fatalf("open interval should have a start and no end: %+v", iv)
	}
	if rec.Rejoins != 0 {
		t.Fatalf("%d rejoins recorded with no restart", rec.Rejoins)
	}
	if d := rec.DownIntervals[0].Duration(); d <= 0 {
		t.Fatalf("open interval duration %v", d)
	}
}

// TestJitterDeterministic pins the backoff jitter: a fixed seed reproduces the
// exact delay sequence, and every delay lands in [d/2, d).
func TestJitterDeterministic(t *testing.T) {
	const d = 80 * time.Millisecond
	draw := func(seed uint64) []time.Duration {
		rng := stats.NewRNG(seed)
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = jitter(d, rng)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v != %v for the same seed", i, a[i], b[i])
		}
		if a[i] < d/2 || a[i] >= d {
			t.Fatalf("draw %d: %v outside [%v, %v)", i, a[i], d/2, d)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}
