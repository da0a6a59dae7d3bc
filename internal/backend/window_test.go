package backend

import (
	"net"
	"testing"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
)

// TestFlowWindowResize pins the resizable-semaphore semantics: acquire blocks
// at the limit, growth wakes blocked acquirers, shrink stops admitting until
// releases bring the count under the new bound, and the limit floors at 1.
func TestFlowWindowResize(t *testing.T) {
	w := newFlowWindow(2)
	w.acquire()
	w.acquire()
	if w.load() != 2 {
		t.Fatalf("load = %d, want 2", w.load())
	}

	acquired := make(chan struct{})
	go func() {
		w.acquire()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire succeeded past the limit")
	case <-time.After(20 * time.Millisecond):
	}

	w.setLimit(3) // growth admits the blocked acquirer without any release
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire still blocked after the window grew")
	}

	w.setLimit(1) // shrink below the in-flight count: 3 in flight, limit 1
	blocked := make(chan struct{})
	go func() {
		w.acquire()
		close(blocked)
	}()
	w.release() // 2 in flight, still over the shrunken limit
	w.release() // 1 in flight, at the limit
	select {
	case <-blocked:
		t.Fatal("acquire admitted while still at the shrunken limit")
	case <-time.After(20 * time.Millisecond):
	}
	w.release() // 0 in flight: one slot free
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire never admitted after releases cleared the shrunken window")
	}

	w.setLimit(0)
	if w.limitNow() != 1 {
		t.Fatalf("limit after setLimit(0) = %d, want floor of 1", w.limitNow())
	}
}

// TestSetMaxInFlightLive checks the Remote-level half: every replica's window
// retunes without reconnecting.
func TestSetMaxInFlightLive(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	_, remote := startFleet(t, 2,
		serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond},
		RemoteConfig{MaxInFlight: 4})
	if got := remote.InFlightLimit(); got != 4 {
		t.Fatalf("initial in-flight limit %d, want 4", got)
	}
	remote.SetMaxInFlight(16)
	if got := remote.InFlightLimit(); got != 16 {
		t.Fatalf("after resize limit %d, want 16", got)
	}
	// Traffic still flows at the new limit.
	got := offlineAccuracyByIndex(t, remote, qsl)
	if len(got) != qsl.TotalSampleCount() {
		t.Fatalf("coverage %d of %d after live resize", len(got), qsl.TotalSampleCount())
	}
	remote.SetMaxInFlight(0)
	if got := remote.InFlightLimit(); got != 1 {
		t.Fatalf("limit after SetMaxInFlight(0) = %d, want floor of 1", got)
	}
}

// TestRetireSkipsReplica: a retired replica receives no new traffic even
// though its connections stay healthy, and readmission restores it.
func TestRetireSkipsReplica(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	servers, remote := startFleet(t, 2,
		serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond},
		RemoteConfig{MaxInFlight: 16})

	if err := remote.Retire(1); err != nil {
		t.Fatal(err)
	}
	if !remote.Retired(1) || remote.Retired(0) {
		t.Fatalf("retired flags: 0=%v 1=%v", remote.Retired(0), remote.Retired(1))
	}
	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 256
	settings.MinDuration = 0
	if _, err := loadgen.StartTest(remote, qsl, settings); err != nil {
		t.Fatal(err)
	}
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if n := servers[1].Metrics().Completed; n != 0 {
		t.Fatalf("retired replica served %d requests", n)
	}
	if servers[0].Metrics().Completed == 0 {
		t.Fatal("surviving replica served nothing")
	}

	if err := remote.Readmit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.StartTest(remote, qsl, settings); err != nil {
		t.Fatal(err)
	}
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if servers[1].Metrics().Completed == 0 {
		t.Fatal("readmitted replica still receives no traffic")
	}
}

// TestRetireLastRoutableRefused: the router never retires itself into a
// zero-replica fleet.
func TestRetireLastRoutableRefused(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	_, remote := startFleet(t, 2,
		serve.Config{Engine: engine, Store: qsl, Workers: 1, BatchWait: time.Millisecond},
		RemoteConfig{})
	if err := remote.Retire(5); err == nil {
		t.Fatal("out-of-range retire succeeded")
	}
	if err := remote.Retire(0); err != nil {
		t.Fatal(err)
	}
	if err := remote.Retire(1); err == nil {
		t.Fatal("retired the last routable replica")
	}
	if err := remote.Readmit(5); err == nil {
		t.Fatal("out-of-range readmit succeeded")
	}
}

// TestTolerateDownStandbySlot: a Remote built with TolerateDown accepts an
// address with no server behind it (a standby slot), keeps serving from the
// live replicas, and picks the slot up through the redial supervisors when a
// server later appears there — the client half of a replica spawn.
func TestTolerateDownStandbySlot(t *testing.T) {
	engine, qsl := buildMobileNetStack(t)
	scfg := serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond}
	live, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })

	// Reserve an address for the standby slot, then free it: nothing listens
	// there when the client dials.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standbyAddr := l.Addr().String()
	l.Close()

	if _, err := NewRemote(RemoteConfig{
		Addrs: []string{live.Addr(), standbyAddr}, TolerateDown: true, DisableRecovery: true,
	}); err == nil {
		t.Fatal("TolerateDown with recovery disabled must refuse construction")
	}

	remote, err := NewRemote(RemoteConfig{
		Addrs: []string{live.Addr(), standbyAddr}, TolerateDown: true,
		MaxInFlight: 16, RedialInitial: time.Millisecond, RedialMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("TolerateDown construction with a dead slot: %v", err)
	}
	t.Cleanup(func() { remote.Close() })
	if remote.DownReplicas() != 1 {
		t.Fatalf("DownReplicas = %d, want the standby slot down", remote.DownReplicas())
	}

	// The fleet serves from the live replica while the slot is empty.
	got := offlineAccuracyByIndex(t, remote, qsl)
	if len(got) != qsl.TotalSampleCount() {
		t.Fatalf("coverage %d of %d with a standby slot", len(got), qsl.TotalSampleCount())
	}

	// Spawn a server into the slot; the redial supervisor's probe handshake
	// rejoins it without any client-side action.
	cfg := scfg
	cfg.Addr = standbyAddr
	spawned, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spawned.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for remote.DownReplicas() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby slot never rejoined after a server appeared")
		}
		time.Sleep(time.Millisecond)
	}

	settings := loadgen.DefaultSettings(loadgen.Offline)
	settings.MinSampleCount = 512
	settings.MinDuration = 0
	if _, err := loadgen.StartTest(remote, qsl, settings); err != nil {
		t.Fatal(err)
	}
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if spawned.Metrics().Completed == 0 {
		t.Fatal("spawned replica served nothing after rejoining")
	}
}
