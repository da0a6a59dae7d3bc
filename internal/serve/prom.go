package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mlperf/internal/tensor"
	"mlperf/internal/trace"
)

// Prometheus text-format exposition (version 0.0.4) of the serving metrics.
//
// The scrape endpoint renders exactly the numbers the wire-protocol metrics
// frames return and audit.CheckServing reconciles — one family per Snapshot
// field, labeled by hosted model — so an external scraper, the driving
// client and the conformance audit all read the same counters. Counters use
// *_total names, the dispatched-batch-size histogram follows the Prometheus
// histogram convention (cumulative le buckets plus a _count), latency
// percentiles are exposed as summary families with quantile labels, and the
// configured workers/queue_limit/max_batch limits are gauges. Go runtime
// health families (heap, GC pauses, goroutines) and — when tracing
// is enabled — the per-stage trace histograms ride the same scrape.

// scrapeServer is the optional HTTP listener behind Config.MetricsAddr.
type scrapeServer struct {
	ln  net.Listener
	srv *http.Server
}

func newScrapeServer(addr string, s *Server, enablePprof bool) (*scrapeServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: binding metrics endpoint on %s: %w", addr, err)
	}
	sc := &scrapeServer{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w)
	})
	if s.tracer != nil {
		// A Chrome trace-event dump of the retained records; save the body
		// and open it in Perfetto (or chrome://tracing) directly.
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = trace.WriteChrome(w, s.tracer.Records())
		})
	}
	if enablePprof {
		// The stdlib handlers, mounted explicitly: this mux is private, so
		// importing net/http/pprof for its DefaultServeMux side effect would
		// register nothing reachable.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	sc.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go sc.srv.Serve(ln)
	return sc, nil
}

func (sc *scrapeServer) addr() string { return sc.ln.Addr().String() }

func (sc *scrapeServer) close() { sc.srv.Close() }

// WritePrometheus renders every hosted model's current snapshot in the
// Prometheus text format. The default (unnamed) model is labeled
// model="default" so the label is never empty.
func (s *Server) WritePrometheus(w io.Writer) {
	snaps := make([]Snapshot, len(s.hostList))
	labels := make([]string, len(s.hostList))
	for i, h := range s.hostList {
		snaps[i] = h.snapshot()
		labels[i] = promModelLabel(h.cfg.Name)
	}
	draining := 0.0
	if s.Draining() {
		draining = 1
	}
	WriteSnapshotsPrometheus(w, labels, snaps)
	promFamily(w, "mlperf_serve_draining", "gauge", "1 while the server is draining or shut down.")
	fmt.Fprintf(w, "mlperf_serve_draining %g\n", draining)
	WriteKernelPrometheus(w, tensor.CurrentKernelConfig())
	WriteBufferPoolPrometheus(w)
	WriteRuntimePrometheus(w)
	s.tracer.WritePrometheus(w)
}

// WriteBufferPoolPrometheus renders the size-classed wire-buffer pool
// counters. Process-level: client and server share the pools. A healthy
// steady state shows gets/puts climbing together while misses and oversized
// stay flat — that is the scrapeable form of the zero-allocation claim.
func WriteBufferPoolPrometheus(w io.Writer) {
	st := ReadBufferPoolStats()
	promFamily(w, "mlperf_bufpool_gets_total", "counter",
		"Wire buffers acquired from the size-classed pools.")
	fmt.Fprintf(w, "mlperf_bufpool_gets_total %d\n", st.Gets)
	promFamily(w, "mlperf_bufpool_puts_total", "counter",
		"Wire buffers released back into the pools.")
	fmt.Fprintf(w, "mlperf_bufpool_puts_total %d\n", st.Puts)
	promFamily(w, "mlperf_bufpool_misses_total", "counter",
		"Acquires that allocated because the class pool was empty.")
	fmt.Fprintf(w, "mlperf_bufpool_misses_total %d\n", st.Misses)
	promFamily(w, "mlperf_bufpool_oversized_total", "counter",
		"Acquires larger than the largest class, served outside the pool.")
	fmt.Fprintf(w, "mlperf_bufpool_oversized_total %d\n", st.Oversized)
}

// WriteRuntimePrometheus renders Go runtime health families: live heap
// bytes, cumulative GC pause time as a quantile-less summary (sum + count,
// so rate() yields mean pause), and the goroutine count. Process-level,
// like the kernel families.
func WriteRuntimePrometheus(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	promFamily(w, "mlperf_runtime_heap_bytes", "gauge",
		"Live heap bytes (runtime.MemStats.HeapAlloc).")
	fmt.Fprintf(w, "mlperf_runtime_heap_bytes %d\n", ms.HeapAlloc)
	promFamily(w, "mlperf_runtime_gc_pause_seconds", "summary",
		"Cumulative stop-the-world GC pause time and collection count.")
	fmt.Fprintf(w, "mlperf_runtime_gc_pause_seconds_sum %s\n", promFloat(float64(ms.PauseTotalNs)/1e9))
	fmt.Fprintf(w, "mlperf_runtime_gc_pause_seconds_count %d\n", ms.NumGC)
	promFamily(w, "mlperf_runtime_goroutines", "gauge",
		"Goroutines alive at scrape time.")
	fmt.Fprintf(w, "mlperf_runtime_goroutines %d\n", runtime.NumGoroutine())
}

// WriteKernelPrometheus renders the process's compute-kernel configuration:
// the active SIMD dispatch tier as an info-style gauge (the tier rides in the
// simd label; the value is always 1) and the live tuning-knob values. The
// families are process-level, not per-model — every hosted model runs the
// same kernels.
func WriteKernelPrometheus(w io.Writer, kc tensor.KernelConfig) {
	promFamily(w, "mlperf_kernel_info", "gauge",
		"Active SIMD kernel dispatch tier (in the simd label; value is always 1).")
	fmt.Fprintf(w, "mlperf_kernel_info{simd=%s} 1\n", promQuote(kc.SIMD))
	promFamily(w, "mlperf_kernel_flop_threshold", "gauge",
		"Live parallel-dispatch GEMM threshold in multiply-accumulates.")
	fmt.Fprintf(w, "mlperf_kernel_flop_threshold %d\n", kc.FlopThreshold)
	promFamily(w, "mlperf_kernel_panel_bytes", "gauge",
		"Live GEMM column-panel cache budget in bytes.")
	fmt.Fprintf(w, "mlperf_kernel_panel_bytes %d\n", kc.PanelBytes)
	calibrated := 0
	if kc.Calibrated {
		calibrated = 1
	}
	promFamily(w, "mlperf_kernel_calibrated", "gauge",
		"1 when a measurement-driven calibration set the kernel knobs.")
	fmt.Fprintf(w, "mlperf_kernel_calibrated %d\n", calibrated)
}

// promModelLabel maps a hosted model id to its scrape label value.
func promModelLabel(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// WriteSnapshotsPrometheus renders a set of labeled snapshots in the
// Prometheus text format, one family at a time (a family's # HELP/# TYPE
// header appears once, followed by every model's sample). It is exported so
// CLIs can expose snapshots they fetched over the wire.
func WriteSnapshotsPrometheus(w io.Writer, models []string, snaps []Snapshot) {
	counter := func(name, help string, value func(Snapshot) uint64) {
		promFamily(w, name, "counter", help)
		for i, s := range snaps {
			fmt.Fprintf(w, "%s{model=%s} %d\n", name, promQuote(models[i]), value(s))
		}
	}
	gauge := func(name, help string, value func(Snapshot) float64) {
		promFamily(w, name, "gauge", help)
		for i, s := range snaps {
			fmt.Fprintf(w, "%s{model=%s} %s\n", name, promQuote(models[i]), promFloat(value(s)))
		}
	}

	counter("mlperf_serve_admitted_total", "Requests accepted into the admission queue.",
		func(s Snapshot) uint64 { return s.Admitted })
	counter("mlperf_serve_completed_total", "Requests served to completion.",
		func(s Snapshot) uint64 { return s.Completed })
	counter("mlperf_serve_rejected_total", "Arrivals turned away by admission control.",
		func(s Snapshot) uint64 { return s.Rejected })
	counter("mlperf_serve_shed_total", "Admitted requests evicted by the shed-oldest policy.",
		func(s Snapshot) uint64 { return s.Shed })
	counter("mlperf_serve_expired_total", "Requests whose deadline passed while queued.",
		func(s Snapshot) uint64 { return s.Expired })
	counter("mlperf_serve_errors_total", "Requests that failed to load, infer or encode.",
		func(s Snapshot) uint64 { return s.Errors })
	counter("mlperf_serve_flushes_total", "End-of-series flushes observed.",
		func(s Snapshot) uint64 { return s.Flushes })

	gauge("mlperf_serve_queue_depth", "Admission queue population at scrape time.",
		func(s Snapshot) float64 { return float64(s.QueueDepth) })
	gauge("mlperf_serve_queue_limit", "Configured admission queue bound.",
		func(s Snapshot) float64 { return float64(s.QueueLimit) })
	gauge("mlperf_serve_workers", "Configured inference worker-pool size.",
		func(s Snapshot) float64 { return float64(s.Workers) })
	gauge("mlperf_serve_max_batch", "Configured dynamic-batch cap.",
		func(s Snapshot) float64 { return float64(s.MaxBatch) })

	promFamily(w, "mlperf_serve_queue_latency_seconds", "summary",
		"Recent queue-latency quantiles (window of recent requests).")
	for i, s := range snaps {
		promQuantile(w, "mlperf_serve_queue_latency_seconds", models[i], "0.5", s.QueueP50)
		promQuantile(w, "mlperf_serve_queue_latency_seconds", models[i], "0.99", s.QueueP99)
	}
	promFamily(w, "mlperf_serve_service_latency_seconds", "summary",
		"Recent service-latency quantiles (window of recent requests).")
	for i, s := range snaps {
		promQuantile(w, "mlperf_serve_service_latency_seconds", models[i], "0.5", s.ServiceP50)
		promQuantile(w, "mlperf_serve_service_latency_seconds", models[i], "0.99", s.ServiceP99)
	}

	promFamily(w, "mlperf_serve_batch_size", "histogram", "Dispatched batch sizes.")
	for i, s := range snaps {
		var cum uint64
		for _, b := range s.BatchHistogram {
			cum += b.Count
			le := "+Inf"
			if b.Le > 0 {
				le = strconv.Itoa(b.Le)
			}
			fmt.Fprintf(w, "mlperf_serve_batch_size_bucket{model=%s,le=%q} %d\n",
				promQuote(models[i]), le, cum)
		}
		fmt.Fprintf(w, "mlperf_serve_batch_size_count{model=%s} %d\n", promQuote(models[i]), cum)
	}
}

// promFamily writes one metric family's HELP/TYPE header.
func promFamily(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promQuantile writes one summary-style quantile sample.
func promQuantile(w io.Writer, name, model, q string, d time.Duration) {
	fmt.Fprintf(w, "%s{model=%s,quantile=%q} %s\n", name, promQuote(model), q, promFloat(d.Seconds()))
}

// promQuote quotes a label value, escaping backslashes, quotes and newlines
// per the exposition format.
func promQuote(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return `"` + r.Replace(v) + `"`
}

// promFloat formats a sample value (shortest round-trip representation).
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
