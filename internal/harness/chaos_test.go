package harness

import (
	"testing"
	"time"

	"mlperf/internal/audit"
	"mlperf/internal/backend"
	"mlperf/internal/chaos"
	"mlperf/internal/core"
	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
)

// chaosDeployment builds a 2-replica loopback fleet with fast recovery knobs
// (tight backoff so tests converge quickly) and an optional fault injector.
func chaosDeployment(t *testing.T, in *chaos.Injector, rcfg backend.RemoteConfig) (*Assembly, *LoopbackDeployment) {
	t.Helper()
	a, err := BuildNative(core.ImageClassificationLight, BuildOptions{DatasetSamples: 32, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.RedialInitial == 0 {
		rcfg.RedialInitial = time.Millisecond
	}
	if rcfg.RedialMax == 0 {
		rcfg.RedialMax = 20 * time.Millisecond
	}
	if rcfg.RecoverySeed == 0 {
		rcfg.RecoverySeed = 7
	}
	dep, err := a.ServeLoopback(ServeOptions{
		Replicas: 2,
		Server:   serve.Config{Workers: 2, BatchWait: time.Millisecond},
		Client:   rcfg,
		Chaos:    in,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	return a, dep
}

// servingEvidence assembles the audit evidence for a chaos run from the
// client's fault-tolerant view (crashed epochs folded back into the replica
// snapshots).
func servingEvidence(t *testing.T, dep *LoopbackDeployment, res *loadgen.Result, settings loadgen.TestSettings) audit.ServingEvidence {
	t.Helper()
	snaps, err := dep.Remote.ReplicaMetrics()
	if err != nil {
		t.Fatal(err)
	}
	rec := dep.Remote.Recovery()
	return audit.ServingEvidence{
		Result:               res,
		Settings:             settings,
		ClientRejected:       dep.Remote.Rejected(),
		ClientExpired:        dep.Remote.Expired(),
		ClientTransportDrops: dep.Remote.TransportDrops(),
		Recovery:             &rec,
		Replicas:             snaps,
	}
}

// TestChaosKillRestartRejoins is the PR's acceptance test: one replica of a
// 2-replica fleet is killed mid-run and restarted on the same address. The
// fleet must route around the outage (the run completes VALID with zero
// dropped responses), the killed replica must rejoin through the probe
// handshake and reopen barrier, the outage must be visible as a closed
// down/up interval in the merged metrics, and audit.CheckServing must
// reconcile all of it.
func TestChaosKillRestartRejoins(t *testing.T) {
	a, dep := chaosDeployment(t, nil, backend.RemoteConfig{MaxInFlight: 32})

	settings := QuickSettings(a.Spec, loadgen.Offline, 1024)
	settings.MinDuration = 0
	settings.MinSampleCount = 4096

	type runOut struct {
		res *loadgen.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := loadgen.StartTest(dep.Assembly.SUT, dep.Assembly.QSL, settings)
		done <- runOut{res, err}
	}()

	// Kill replica 0 once it has demonstrably served traffic, then bring it
	// back shortly after — a crash and recovery in the middle of the stream.
	killed := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if dep.Replica(0).Metrics().Completed > 0 {
			if err := dep.KillReplica(0); err != nil {
				t.Fatalf("killing replica 0: %v", err)
			}
			killed = true
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	if !killed {
		t.Fatal("replica 0 never served anything to kill")
	}
	time.Sleep(10 * time.Millisecond)
	if err := dep.RestartReplica(0); err != nil {
		t.Fatal(err)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if res.ResponsesDropped != 0 {
		t.Errorf("fleet dropped %d responses despite failover", res.ResponsesDropped)
	}
	if !res.Valid {
		t.Errorf("kill-restart run invalid: %v", res.ValidityMessages)
	}
	dep.Remote.Wait()

	// The replica must rejoin: probed ready, reopen barrier re-run, readmitted
	// to routing. The supervisors keep working after the run, so poll briefly.
	rejoinDeadline := time.Now().Add(5 * time.Second)
	for dep.Remote.Recovery().Rejoins == 0 && time.Now().Before(rejoinDeadline) {
		time.Sleep(time.Millisecond)
	}
	rec := dep.Remote.Recovery()
	if rec.Rejoins < 1 {
		t.Fatalf("killed replica never rejoined: %+v", rec)
	}
	if dep.Remote.DownReplicas() != 0 {
		t.Errorf("%d replicas still down after restart", dep.Remote.DownReplicas())
	}
	if len(rec.DownIntervals) == 0 {
		t.Fatal("no down interval recorded for the outage")
	}
	iv := rec.DownIntervals[0]
	if iv.End.IsZero() || iv.End.Before(iv.Start) || iv.Replica != 0 {
		t.Errorf("malformed down interval: %+v", iv)
	}
	if rec.ConnRedials < int64(rec.Rejoins) {
		t.Errorf("%d rejoins with only %d connection redials", rec.Rejoins, rec.ConnRedials)
	}

	// The outage is visible exactly where the run's counters are reported.
	merged, err := dep.Remote.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Recovery == nil || merged.Recovery.Rejoins < 1 {
		t.Error("merged snapshot carries no recovery record")
	}
	if merged.Completed == 0 {
		t.Error("merged snapshot lost the run's completions")
	}

	findings, err := audit.CheckServing(servingEvidence(t, dep, res, settings))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.Pass {
			t.Errorf("audit %s failed: %s", f.Name, f.Detail)
		}
	}
}

// TestChaosConnFaultSoak runs an offline stream through a fleet whose every
// connection misbehaves on a seeded schedule — severed, truncated, corrupted,
// torn and delayed writes on both ends of the wire. The run must terminate
// (never hang), every dropped response must be accounted for, and the audit
// must reconcile the recovery record with the drop accounting.
func TestChaosConnFaultSoak(t *testing.T) {
	in := chaos.New(chaos.Config{
		Seed:             123,
		SeverRate:        0.01,
		TruncateRate:     0.005,
		CorruptRate:      0.005,
		PartialWriteRate: 0.02,
		DelayRate:        0.02,
		Delay:            200 * time.Microsecond,
		PartialDelay:     100 * time.Microsecond,
		MaxFaults:        12,
	})
	a, dep := chaosDeployment(t, in, backend.RemoteConfig{MaxInFlight: 32, MaxAttempts: 4})

	settings := QuickSettings(a.Spec, loadgen.Offline, 1024)
	settings.MinDuration = 0
	settings.MinSampleCount = 2048

	res, err := loadgen.StartTest(dep.Assembly.SUT, dep.Assembly.QSL, settings)
	if err != nil {
		t.Fatal(err)
	}
	dep.Remote.Wait()

	accounted := dep.Remote.Rejected() + dep.Remote.Expired() + dep.Remote.TransportDrops()
	if int64(res.ResponsesDropped) != accounted {
		t.Errorf("run dropped %d responses; client accounts for %d (rejected %d, expired %d, transport %d)",
			res.ResponsesDropped, accounted, dep.Remote.Rejected(), dep.Remote.Expired(), dep.Remote.TransportDrops())
	}
	if res.ResponsesDropped > 0 && res.Valid {
		t.Error("run dropped responses yet reports valid")
	}
	if res.SamplesCompleted != res.SamplesIssued {
		t.Errorf("soak hung work: %d of %d samples completed", res.SamplesCompleted, res.SamplesIssued)
	}

	findings, err := audit.CheckServing(servingEvidence(t, dep, res, settings))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.Pass {
			t.Errorf("audit %s failed: %s", f.Name, f.Detail)
		}
	}
	t.Logf("soak: %d faults fired (%d severed), %d redials, %d retries, %d transport drops, %d dropped responses",
		in.Faults(), func() int64 { s, _, _ := in.Stats(); return s }(),
		dep.Remote.Recovery().ConnRedials, dep.Remote.Recovery().Retries,
		dep.Remote.TransportDrops(), res.ResponsesDropped)
}

// TestChaosDrainRefusesReadmission pins the drain/probe interlock: when a
// crashed replica's address comes back as a DRAINING server, the client's
// redial supervisor connects, probes, reads ProbeDraining and keeps the
// replica out of routing. Only when a ready server takes the address does the
// replica rejoin.
func TestChaosDrainRefusesReadmission(t *testing.T) {
	a, err := BuildNative(core.ImageClassificationLight, BuildOptions{DatasetSamples: 16, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	scfg := serve.Config{Engine: a.Engine, Store: a.QSL, Workers: 2}
	srv, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	remote, err := backend.NewRemote(backend.RemoteConfig{
		Addr: addr, RedialInitial: time.Millisecond, RedialMax: 5 * time.Millisecond, RecoverySeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Crash the server, then resurrect its address as a draining server.
	if err := srv.Kill(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for remote.DownReplicas() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if remote.DownReplicas() != 1 {
		t.Fatal("replica not marked down after kill")
	}
	scfg.Addr = addr
	draining, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	draining.Drain()
	if !draining.Draining() {
		t.Fatal("server not draining after Drain")
	}

	// The supervisors reach a listening server whose probe says "draining":
	// the replica must stay out of routing.
	time.Sleep(50 * time.Millisecond)
	if remote.DownReplicas() != 1 {
		t.Fatal("draining server was readmitted to routing")
	}
	if rec := remote.Recovery(); rec.Rejoins != 0 {
		t.Fatalf("%d rejoins against a draining server", rec.Rejoins)
	}

	// A ready server on the same address is readmitted.
	if err := draining.Close(); err != nil {
		t.Fatal(err)
	}
	ready, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ready.Close()
	for remote.DownReplicas() == 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if remote.DownReplicas() != 0 {
		t.Fatal("ready server never rejoined")
	}
	rec := remote.Recovery()
	if rec.Rejoins != 1 || len(rec.DownIntervals) != 1 || rec.DownIntervals[0].End.IsZero() {
		t.Errorf("recovery record after rejoin: %+v", rec)
	}
}
