// Command mlperf-loadgen runs one benchmark: a task and scenario against the
// native reference implementation, a simulated platform from the catalogue,
// or a remote mlperf-serve instance across the network, in performance mode
// and optionally accuracy mode.
//
// Examples:
//
//	mlperf-loadgen -task image-classification-light -scenario SingleStream
//	mlperf-loadgen -task machine-translation -scenario Offline -accuracy
//	mlperf-loadgen -task image-classification-heavy -scenario Server \
//	    -backend simulated -platform dc-gpu-g1 -scale 256
//	mlperf-loadgen -task image-classification-light -scenario Server \
//	    -backend remote -addr 127.0.0.1:9090,127.0.0.1:9091
//
// The remote backend drives one or more mlperf-serve replicas started with
// the same -task, -samples and -seed (model weights and data are derived
// deterministically from them, so over-the-wire responses stay bit-identical
// to in-process inference — including for -accuracy runs, which score remote
// responses against the local ground truth). A comma-separated -addr fans the
// load out over the replica set with least-in-flight routing; -model
// addresses one named engine on a multi-model mlperf-serve -tasks listener.
// The Server scenario offers one seeded Poisson rate for the whole run.
//
// The Swarm scenario simulates a datacenter frontend's client population:
//
//	mlperf-loadgen -task image-classification-light -scenario swarm \
//	    -backend remote -addr 127.0.0.1:9090 -sessions 10000
//
// -sessions sets the simulated session count, -session-qps each session's
// Poisson rate, and -session-lifetime the mean lifetime before a session
// churns (reconnects with a fresh deterministic schedule). Validity is
// judged per traffic class; the default configuration runs one class with
// the task's Server-scenario latency bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlperf/internal/backend"
	"mlperf/internal/core"
	"mlperf/internal/harness"
	"mlperf/internal/loadgen"
	"mlperf/internal/quantize"
	"mlperf/internal/simhw"
	"mlperf/internal/trace"
)

func main() {
	var (
		taskName     = flag.String("task", string(core.ImageClassificationLight), "benchmark task")
		scenarioName = flag.String("scenario", "SingleStream", "SingleStream, MultiStream, Server, Offline or Swarm")
		backendName  = flag.String("backend", "native", "native, simulated or remote")
		platformName = flag.String("platform", "desktop-cpu-c1", "simulated platform (with -backend simulated)")
		remoteAddr   = flag.String("addr", "127.0.0.1:9090", "mlperf-serve address, or a comma-separated replica set (with -backend remote)")
		remoteModel  = flag.String("model", "", "named model on a multi-model mlperf-serve (with -backend remote)")
		deadline     = flag.Duration("deadline", 0, "per-request deadline stamped by the remote backend (0 = none)")
		accuracyRun  = flag.Bool("accuracy", false, "also run accuracy mode and score quality")
		scale        = flag.Int("scale", 128, "divide the production query counts and duration by this factor (1 = full production run)")
		samples      = flag.Int("samples", 128, "synthetic data-set size")
		seed         = flag.Uint64("seed", 42, "model/data seed")
		sessions     = flag.Int("sessions", 0, "Swarm scenario: simulated client sessions (0 = scenario default)")
		sessionQPS   = flag.Float64("session-qps", 0, "Swarm scenario: per-session Poisson rate (0 = scenario default)")
		sessionLife  = flag.Duration("session-lifetime", -1, "Swarm scenario: mean session lifetime before churn (0 disables churn; -1 = scenario default)")
		format       = flag.String("quantize", "", "optional weight format from the approved list (e.g. int8)")
		traceEach    = flag.Int("trace", 0, "trace every Nth request through the client-side stages, plus every tail outlier (remote backend only; 0 = off)")
		traceOut     = flag.String("trace-out", "", "write captured spans as Chrome trace-event JSON to this file after the run (requires -trace)")
	)
	flag.Parse()

	scenario, err := parseScenario(*scenarioName)
	if err != nil {
		fatal(err)
	}
	task := core.Task(*taskName)
	spec, err := core.Spec(task)
	if err != nil {
		fatal(err)
	}

	assembly, err := harness.BuildNative(task, harness.BuildOptions{
		DatasetSamples: *samples,
		Seed:           *seed,
		Quantization:   quantize.Format(strings.ToLower(*format)),
	})
	if err != nil {
		fatal(err)
	}

	// Client-side tracing only makes sense across the wire: the native and
	// simulated backends have no issue/write/await path to time.
	var tracer *trace.Tracer
	if *traceEach > 0 && *backendName != "remote" {
		fatal(fmt.Errorf("-trace requires -backend remote"))
	}
	if *traceOut != "" && *traceEach <= 0 {
		fatal(fmt.Errorf("-trace-out needs -trace to capture anything"))
	}

	// Optionally swap the SUT for a simulated platform or a remote serving
	// instance while keeping the task's data set and settings.
	switch *backendName {
	case "native":
	case "simulated":
		platform, err := simhw.FindPlatform(*platformName)
		if err != nil {
			fatal(err)
		}
		workload, ok := simhw.StandardWorkloads()[string(spec.ReferenceModel)]
		if !ok {
			fatal(fmt.Errorf("no standard workload for %s", spec.ReferenceModel))
		}
		sut, err := backend.NewSimulated(backend.SimulatedConfig{
			Platform: platform, Workload: workload, TimeScale: 100, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		assembly.SetSUT(sut)
	case "remote":
		addrs := strings.Split(*remoteAddr, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		if *traceEach > 0 {
			tracer = trace.New(trace.Config{SampleEvery: *traceEach})
		}
		remote, err := backend.NewRemote(backend.RemoteConfig{
			Addrs: addrs, Model: *remoteModel,
			Name:     fmt.Sprintf("%s@%s", spec.ReferenceModel, *remoteAddr),
			Deadline: *deadline,
			Tracer:   tracer,
		})
		if err != nil {
			fatal(err)
		}
		defer remote.Close()
		assembly.SetSUT(remote)
	default:
		fatal(fmt.Errorf("unknown backend %q (want native, simulated or remote)", *backendName))
	}

	settings := harness.QuickSettings(spec, scenario, *scale)
	if scenario == loadgen.Swarm {
		if *sessions > 0 {
			settings.SwarmSessions = *sessions
		}
		if *sessionQPS > 0 {
			settings.SwarmSessionQPS = *sessionQPS
		}
		if *sessionLife >= 0 {
			settings.SwarmSessionLifetime = *sessionLife
		}
	}
	report, err := harness.Run(assembly, harness.RunOptions{
		Scenario:    scenario,
		Settings:    &settings,
		RunAccuracy: *accuracyRun && *backendName != "simulated",
	})
	if err != nil {
		fatal(err)
	}

	perf := report.Performance
	fmt.Printf("task:        %s\n", task)
	fmt.Printf("scenario:    %s\n", scenario)
	fmt.Printf("SUT:         %s\n", report.SUTName)
	fmt.Printf("queries:     %d issued, %d completed\n", perf.QueriesIssued, perf.QueriesCompleted)
	fmt.Printf("duration:    %v\n", perf.TestDuration)
	fmt.Printf("metric:      %.4g (%s)\n", perf.MetricValue(), perf.MetricName())
	fmt.Printf("p50/p90/p99: %v / %v / %v\n", perf.QueryLatencies.P50, perf.QueryLatencies.P90, perf.QueryLatencies.P99)
	fmt.Printf("valid:       %v %v\n", perf.Valid, perf.ValidityMessages)
	if scenario == loadgen.Swarm {
		fmt.Printf("swarm:       %d sessions, %d churns\n", perf.SwarmSessions, perf.SwarmChurns)
		for _, c := range perf.SwarmClasses {
			fmt.Printf("class %-12s %d issued, p%.0f %v against %v, violations %.3f%%, valid %v\n",
				c.Name+":", c.QueriesIssued, 100*c.TargetPercentile, c.PercentileLatency,
				c.TargetLatency, 100*c.BoundViolations, c.Valid)
		}
	}
	if remote, ok := assembly.SUT.(*backend.Remote); ok {
		fmt.Printf("shed:        %d rejected, %d expired, %d replicas down\n",
			remote.Rejected(), remote.Expired(), remote.DownReplicas())
		if snap, err := remote.ServerMetrics(); err == nil {
			fmt.Printf("serving:     queue p50/p99 %v/%v, service p50/p99 %v/%v, batches to %d\n",
				snap.QueueP50, snap.QueueP99, snap.ServiceP50, snap.ServiceP99, snap.MaxBatch)
		}
		if snaps, err := remote.ReplicaMetrics(); err == nil && len(snaps) > 1 {
			for i, snap := range snaps {
				fmt.Printf("replica %d:   completed %d, rejected %d, expired %d, service p99 %v\n",
					i, snap.Completed, snap.Rejected+snap.Shed, snap.Expired, snap.ServiceP99)
			}
		}
	}
	if report.Accuracy != nil {
		fmt.Printf("accuracy:    %s\n", report.Accuracy)
	}
	if tracer != nil {
		records := tracer.Records()
		fmt.Println(trace.Attribute(records))
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteChrome(f, records); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace:       %d records written to %s\n", len(records), *traceOut)
		}
	}
	if !report.Valid() {
		os.Exit(2)
	}
}

func parseScenario(name string) (loadgen.Scenario, error) {
	for _, s := range loadgen.AllScenarios() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlperf-loadgen:", err)
	os.Exit(1)
}
