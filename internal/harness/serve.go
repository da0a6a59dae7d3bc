package harness

import (
	"fmt"
	"sync"

	"mlperf/internal/backend"
	"mlperf/internal/chaos"
	"mlperf/internal/serve"
)

// ServeOptions configures ServeLoopback. Zero fields inherit the assembly:
// each server replica serves the assembly's engine from its QSL, and the
// client dials the freshly bound addresses.
type ServeOptions struct {
	// Replicas is how many loopback servers to deploy (default 1). Every
	// replica serves the same engine and data set, and the client fans out
	// over all of them with least-in-flight routing — outputs stay
	// bit-identical because the replicas are identical by construction.
	Replicas int
	// Server configures each serve.Server. Engine and Store are filled in
	// from the assembly when unset. Addr must stay empty when Replicas > 1
	// (each replica binds its own kernel-assigned loopback port).
	Server serve.Config
	// Client configures the backend.Remote that drives the fleet. Addr/Addrs
	// are always overwritten with the servers' bound addresses.
	Client backend.RemoteConfig
	// Chaos, when set, threads the fault injector through both ends of every
	// wire: each replica's listener is wrapped (server→client writes can
	// fault) and the client's dialer is wrapped (client→server writes can
	// fault), unless the corresponding hook is already set explicitly. The
	// injector's seeded schedule makes the whole deployment's fault sequence
	// reproducible.
	Chaos *chaos.Injector
}

// LoopbackDeployment is a running fleet of serve.Servers with a connected
// Remote SUT wired into a derived Assembly: the same task, data set, settings
// and quality targets, but inference crossing a real network boundary and
// fanned out over N replicas. KillReplica and RestartReplica turn it into a
// fault-injection rig: a replica can crash mid-run and come back on the same
// address, exercising the client's redial, probe and rejoin machinery.
type LoopbackDeployment struct {
	// Assembly mirrors the source assembly with SUT swapped for the Remote.
	Assembly *Assembly
	// Server is the first replica, kept for single-replica callers.
	Server *serve.Server
	// Remote is the SUT client (also reachable as Assembly.SUT).
	Remote *backend.Remote

	// mu guards Servers against concurrent kill/restart/metrics access.
	mu sync.Mutex
	// Servers is the whole replica fleet in address order. Access it through
	// Replica/ReplicaMetrics when kills or restarts may be in flight.
	Servers []*serve.Server
	// scfg and addrs remember how to rebuild a killed replica on its
	// original address.
	scfg  serve.Config
	addrs []string
}

// Close disconnects the client and shuts every replica down.
func (d *LoopbackDeployment) Close() error {
	cerr := d.Remote.Close()
	d.mu.Lock()
	servers := append([]*serve.Server(nil), d.Servers...)
	d.mu.Unlock()
	var serr error
	for _, srv := range servers {
		if err := srv.Close(); err != nil && serr == nil {
			serr = err
		}
	}
	if cerr != nil {
		return cerr
	}
	return serr
}

// Replica returns replica i's current server (which changes on restart).
func (d *LoopbackDeployment) Replica(i int) *serve.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Servers[i]
}

// Addrs returns the fleet's bound addresses in replica order; a killed
// replica keeps its address, since a restart re-binds the same one.
func (d *LoopbackDeployment) Addrs() []string {
	return append([]string(nil), d.addrs...)
}

// KillReplica crashes replica i: its listener and every connection close
// immediately and queued work is abandoned, exactly as if the process died.
// The client's supervisors take it from there; RestartReplica brings the
// replica back on the same address.
func (d *LoopbackDeployment) KillReplica(i int) error {
	return d.Replica(i).Kill()
}

// DrainReplica gracefully retires replica i: it stops admitting, answers
// everything already queued, and keeps answering probes with ProbeDraining so
// the client will not readmit it until it is restarted.
func (d *LoopbackDeployment) DrainReplica(i int) {
	d.Replica(i).Drain()
}

// RestartReplica starts a fresh server for replica i on its original
// address (the previous server must have been killed or closed first — the
// bind fails otherwise). The client's redial supervisors discover it, probe
// it and re-join it to routing on their own.
func (d *LoopbackDeployment) RestartReplica(i int) error {
	d.mu.Lock()
	cfg := d.scfg
	cfg.Addr = d.addrs[i]
	d.mu.Unlock()
	srv, err := serve.New(cfg)
	if err != nil {
		return fmt.Errorf("harness: restarting replica %d on %s: %w", i, cfg.Addr, err)
	}
	d.mu.Lock()
	d.Servers[i] = srv
	if i == 0 {
		d.Server = srv
	}
	d.mu.Unlock()
	return nil
}

// ReplicaMetrics returns each replica's merged metrics snapshot, read
// directly from the in-process servers (in Servers order). A restarted
// replica reports its current (post-restart) server's counters; the client's
// Remote.ReplicaMetrics is the view that folds crashed epochs back in.
func (d *LoopbackDeployment) ReplicaMetrics() []serve.Snapshot {
	d.mu.Lock()
	servers := append([]*serve.Server(nil), d.Servers...)
	d.mu.Unlock()
	snaps := make([]serve.Snapshot, len(servers))
	for i, srv := range servers {
		snaps[i] = srv.Metrics()
	}
	return snaps
}

// ServeLoopback deploys the assembly's engine behind a fleet of loopback
// serve.Servers and returns a derived assembly whose SUT is a backend.Remote
// fanning out over all of them, so any scenario the source assembly can run
// in-process can also run over the wire — same data, same settings,
// bit-identical outputs — for side-by-side comparison. The caller must Close
// the deployment when done.
func (a *Assembly) ServeLoopback(opts ServeOptions) (*LoopbackDeployment, error) {
	if a.Engine == nil {
		return nil, fmt.Errorf("harness: assembly has no engine to serve")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	scfg := opts.Server
	if scfg.Engine == nil && len(scfg.Models) == 0 {
		scfg.Engine = a.Engine
	}
	if scfg.Store == nil {
		scfg.Store = a.QSL
	}
	if scfg.Addr != "" && opts.Replicas > 1 {
		return nil, fmt.Errorf("harness: a fixed server address cannot host %d replicas", opts.Replicas)
	}
	if opts.Chaos != nil && scfg.WrapListener == nil {
		scfg.WrapListener = opts.Chaos.Listener
	}

	var (
		servers []*serve.Server
		addrs   []string
	)
	closeAll := func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
	for i := 0; i < opts.Replicas; i++ {
		srv, err := serve.New(scfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}

	rcfg := opts.Client
	rcfg.Addr = ""
	rcfg.Addrs = addrs
	if rcfg.Name == "" {
		rcfg.Name = fmt.Sprintf("%s@%dx(%s)", a.SUT.Name(), len(addrs), addrs[0])
	}
	if opts.Chaos != nil && rcfg.Dialer == nil {
		rcfg.Dialer = opts.Chaos.Dialer(nil)
	}
	remote, err := backend.NewRemote(rcfg)
	if err != nil {
		closeAll()
		return nil, err
	}
	derived := *a
	derived.SUT = remote
	derived.observed = remote
	return &LoopbackDeployment{
		Assembly: &derived,
		Server:   servers[0],
		Servers:  servers,
		Remote:   remote,
		scfg:     scfg,
		addrs:    addrs,
	}, nil
}
