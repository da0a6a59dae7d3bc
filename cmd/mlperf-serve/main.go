// Command mlperf-serve exposes benchmark tasks' reference models over network
// sockets: it builds each task's model and synthetic data set exactly as
// mlperf-loadgen does (same -samples/-seed ⇒ same weights and samples, so
// responses are bit-identical to an in-process run), then serves inference
// requests — with dynamic batching, bounded admission and per-request
// deadlines — until interrupted.
//
// One process can host a replica fleet (-replicas starts N identical
// listeners on consecutive ports) and/or several models behind each listener
// (-tasks serves one named engine per task, each with its own admission
// queue, batcher and worker pool — the network form of multitenancy).
//
// Drive it from another process with mlperf-loadgen's remote backend:
//
//	mlperf-serve -task image-classification-light -addr 127.0.0.1:9090 \
//	    -replicas 2 -samples 128 -seed 42 &
//	mlperf-loadgen -task image-classification-light -scenario Server \
//	    -backend remote -addr 127.0.0.1:9090,127.0.0.1:9091 \
//	    -samples 128 -seed 42
//
// With -tasks, clients address a model by its task name (mlperf-loadgen
// -model <task>). On SIGINT/SIGTERM the server drains admitted work and
// prints per-replica, per-model serving metrics (queue depth, batch-size
// histogram, queue/service latency percentiles, rejects) as JSON.
//
// The sizing flags (-workers, -queue, -max-batch) fix each model's worker
// pool, admission bound and batch cap at startup; they do not change while
// the server runs. -metrics-addr serves every replica's counters in
// Prometheus text format at /metrics (consecutive ports, one per replica).
//
// Observability rides the same listener: -pprof mounts net/http/pprof under
// /debug/pprof/, and -trace N samples every Nth request's server-side stages
// (admit, queue, assembly, service, encode, reply) plus every tail outlier,
// exporting the spans as per-stage Prometheus histograms on /metrics, as
// Chrome trace-event JSON at /debug/trace, and — with -trace-out — as a
// trace file written on shutdown, viewable in Perfetto or chrome://tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mlperf/internal/core"
	"mlperf/internal/harness"
	"mlperf/internal/serve"
	"mlperf/internal/tensor"
	"mlperf/internal/trace"
)

func main() {
	var (
		taskName  = flag.String("task", string(core.ImageClassificationLight), "benchmark task whose reference model to serve")
		taskList  = flag.String("tasks", "", "comma-separated tasks to host as named models behind each listener (overrides -task; model id = task name)")
		addr      = flag.String("addr", "127.0.0.1:9090", "listen address (replicas bind consecutive ports from it)")
		replicas  = flag.Int("replicas", 1, "how many identical server replicas to start")
		samples   = flag.Int("samples", 128, "synthetic data-set size (must match the driving loadgen)")
		seed      = flag.Uint64("seed", 42, "model/data seed (must match the driving loadgen)")
		workers   = flag.Int("workers", 0, "inference workers per model (0 = all cores)")
		queue     = flag.Int("queue", 1024, "admission queue depth per model")
		policy    = flag.String("policy", "reject", "overload policy: reject or shed-oldest")
		maxBatch  = flag.Int("max-batch", 0, "dynamic batch cap (0 = the engine's derived micro-batch)")
		batchWait = flag.Duration("batch-wait", 2*time.Millisecond, "how long to hold an under-full batch open")
		metrics   = flag.String("metrics-addr", "", "Prometheus text endpoint address (replicas bind consecutive ports from it; empty = disabled)")
		calibrate = flag.Bool("calibrate", false, "measure this machine's GEMM throughput, fork overhead and L2 at startup and derive the kernel tuning knobs from the measurements")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the metrics listener (requires -metrics-addr)")
		traceEach = flag.Int("trace", 0, "trace every Nth request through the request-path stages, plus every tail outlier (0 = tracing off)")
		traceOut  = flag.String("trace-out", "", "write the captured spans as Chrome trace-event JSON to this file on shutdown (requires -trace)")
	)
	flag.Parse()

	// Kernel setup happens before any engine is built. Calibration only moves
	// scheduling knobs — results stay bit-identical — and because micro-batches
	// derive from the live knobs, it would also be safe later; doing it first
	// simply keeps the startup log coherent. The active SIMD tier and knob
	// values are logged and ride every metrics snapshot (Snapshot.Kernel).
	if *calibrate {
		c := tensor.Calibrate()
		c.Apply()
		fmt.Printf("calibrated: mac-rate=%.3g/s fork-overhead=%v l2=%d -> flop-threshold=%d panel-bytes=%d\n",
			c.MACRate, c.ForkOverhead, c.L2Bytes, c.FlopThreshold, c.PanelBytes)
	}
	kc := tensor.CurrentKernelConfig()
	fmt.Printf("kernel: simd=%s (supported %s) flop-threshold=%d panel-bytes=%d calibrated=%v\n",
		kc.SIMD, tensor.SupportedSIMD(), kc.FlopThreshold, kc.PanelBytes, kc.Calibrated)

	overload, err := serve.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	if *replicas < 1 {
		fatal(fmt.Errorf("-replicas must be at least 1, got %d", *replicas))
	}

	tasks := []string{*taskName}
	named := false
	if *taskList != "" {
		tasks = strings.Split(*taskList, ",")
		named = true
	}

	// One tracer is shared by every replica in the process: the ring and
	// histograms are per model, so a merged dump still attributes spans
	// correctly, and /debug/trace on any replica's metrics port exports the
	// whole fleet's records.
	var tracer *trace.Tracer
	if *traceEach > 0 {
		tracer = trace.New(trace.Config{SampleEvery: *traceEach})
		fmt.Printf("tracing: 1 in %d requests, tail outliers always\n", tracer.SampleEvery())
	} else if *traceOut != "" {
		fatal(fmt.Errorf("-trace-out needs -trace to capture anything"))
	}

	cfg := serve.Config{
		Workers: *workers, QueueDepth: *queue, MaxBatch: *maxBatch,
		Policy: overload, BatchWait: *batchWait, Tracer: tracer, EnablePprof: *pprofOn,
	}
	for _, name := range tasks {
		name = strings.TrimSpace(name)
		assembly, err := harness.BuildNative(core.Task(name), harness.BuildOptions{
			DatasetSamples: *samples, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		// The serving side owns sample residency: load the whole data set
		// before accepting traffic (the untimed load of the benchmark rules —
		// the remote LoadGen's own LoadSamplesToRAM applies to its local copy
		// only).
		all := make([]int, assembly.QSL.TotalSampleCount())
		for i := range all {
			all[i] = i
		}
		if err := assembly.QSL.LoadSamplesToRAM(all); err != nil {
			fatal(err)
		}
		if named {
			cfg.Models = append(cfg.Models, serve.ModelConfig{
				Name: name, Engine: assembly.Engine, Store: assembly.QSL,
			})
			fmt.Printf("model %q: %s (%s)\n", name, assembly.Info.Name, assembly.Spec.Task)
		} else {
			cfg.Engine = assembly.Engine
			cfg.Store = assembly.QSL
			fmt.Printf("serving %s (%s)\n", assembly.Info.Name, assembly.Spec.Task)
		}
	}

	addrs, err := replicaAddrs(*addr, *replicas)
	if err != nil {
		fatal(err)
	}
	var metricsAddrs []string
	if *metrics != "" {
		if metricsAddrs, err = replicaAddrs(*metrics, *replicas); err != nil {
			fatal(err)
		}
	}
	var servers []*serve.Server
	for i := 0; i < *replicas; i++ {
		cfg := cfg
		cfg.Addr = addrs[i]
		if metricsAddrs != nil {
			cfg.MetricsAddr = metricsAddrs[i]
		}
		srv, err := serve.New(cfg)
		if err != nil {
			fatal(err)
		}
		servers = append(servers, srv)
		fmt.Printf("replica %d listening on %s\n", i, srv.Addr())
		if ma := srv.MetricsAddr(); ma != "" {
			fmt.Printf("replica %d metrics on http://%s/metrics\n", i, ma)
		}
	}
	started := servers[0].Metrics()
	fmt.Printf("replicas=%d models=%d workers=%d max-batch=%d queue=%d policy=%s batch-wait=%v\n",
		len(servers), len(servers[0].Models()), started.Workers, started.MaxBatch, started.QueueLimit, overload, *batchWait)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful drain: stop admitting (health probes answer "draining", so a
	// fault-tolerant client will not re-join these replicas), answer everything
	// already queued, and only then snapshot and tear down — the dumped metrics
	// cover every request the fleet ever admitted. A second signal skips the
	// drain and kills the fleet where it stands.
	fmt.Fprintln(os.Stderr, "mlperf-serve: draining (signal again to kill)")
	done := make(chan struct{})
	go func() {
		for _, srv := range servers {
			srv.Drain()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-sig:
		for _, srv := range servers {
			srv.Kill()
		}
		fmt.Fprintln(os.Stderr, "mlperf-serve: killed before drain completed")
		os.Exit(1)
	}

	type labeledSnapshot struct {
		Replica int            `json:"replica"`
		Addr    string         `json:"addr"`
		Model   string         `json:"model,omitempty"`
		Metrics serve.Snapshot `json:"metrics"`
	}
	var dump []labeledSnapshot
	for i, srv := range servers {
		for _, model := range srv.Models() {
			snap, err := srv.ModelMetrics(model)
			if err != nil {
				continue
			}
			dump = append(dump, labeledSnapshot{Replica: i, Addr: srv.Addr(), Model: model, Metrics: snap})
		}
		if err := srv.Close(); err != nil {
			fatal(err)
		}
	}
	out, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nserving metrics:\n%s\n", out)

	// After the drain every admitted request has published its spans; dump
	// them once for the whole fleet.
	if *traceOut != "" && tracer != nil {
		if err := writeTraceFile(*traceOut, tracer.Records()); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
}

// writeTraceFile dumps the captured spans as Chrome trace-event JSON.
func writeTraceFile(path string, records []trace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replicaAddrs expands a base listen address into one per replica: an
// explicit port increments per replica, port 0 stays kernel-assigned.
func replicaAddrs(base string, replicas int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("parsing -addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("parsing -addr port %q: %w", portStr, err)
	}
	addrs := make([]string, replicas)
	for i := range addrs {
		p := port
		if port != 0 {
			p = port + i
		}
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(p))
	}
	return addrs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlperf-serve:", err)
	os.Exit(1)
}
