// Datacenter server: the online-serving use case (translation websites,
// consumer-facing services) where queries arrive as a Poisson process and
// must be answered within a QoS bound.
//
// The example demonstrates four views of the server scenario:
//
//  1. A wall-clock LoadGen run against the native MobileNet backend, in
//     process: every query is answered as it arrives, one sample per
//     inference call.
//
//  2. The same engine served over a real network boundary: a loopback
//     serve.Server (bounded admission queue, dynamic batching, worker pool)
//     driven by backend.Remote, side by side with the in-process run, plus
//     the server's own latency breakdown (queue vs service time) and batch
//     histogram — dynamic batching trading latency for throughput, and the
//     other phenomena an in-process SUT cannot exhibit.
//
//  3. The sharded form of the same deployment: a 2-replica loopback fleet
//     with backend.Remote fanning queries out least-in-flight, the merged
//     and per-replica metrics showing how the load split.
//
//  4. A virtual-time sweep over data-center platforms from the catalogue,
//     searching for the highest Poisson rate each sustains under Table III's
//     latency bound, and comparing it to the unconstrained offline throughput
//     (the Figure 6 analysis for a single task).
//
//     go run ./examples/datacenter_server
package main

import (
	"fmt"
	"log"
	"time"

	"mlperf/internal/backend"
	"mlperf/internal/core"
	"mlperf/internal/harness"
	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
	"mlperf/internal/simhw"
)

func main() {
	// Part 1: wall-clock server run against the native backend in process.
	assembly, err := harness.BuildNative(core.ImageClassificationLight, harness.BuildOptions{
		DatasetSamples: 128, Seed: 3, Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := assembly.Spec

	settings := harness.QuickSettings(spec, loadgen.Server, 512)
	settings.MinDuration = 300 * time.Millisecond
	settings.ServerTargetQPS = 300
	settings.ServerTargetLatency = 50 * time.Millisecond

	report := func(label string, res *loadgen.Result) {
		fmt.Printf("  %-22s achieved %6.1f QPS, p99 %9v, violations %.2f%%, dropped %d, valid=%v\n",
			label, res.ServerAchievedQPS, res.QueryLatencies.P99,
			100*res.LatencyBoundViolations, res.ResponsesDropped, res.Valid)
	}

	plain, err := loadgen.StartTest(assembly.SUT, assembly.QSL, settings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== native MobileNet, server scenario at 300 QPS offered (wall clock, scaled down) ==")
	report("in-process direct", plain)

	// Part 2: the same engine behind a loopback network server. The LoadGen
	// is unchanged — only the SUT now crosses a socket, with admission
	// control and server-side dynamic batching on the measured path.
	dep, err := assembly.ServeLoopback(harness.ServeOptions{
		Server: serve.Config{QueueDepth: 256, BatchWait: 2 * time.Millisecond},
		Client: backend.RemoteConfig{Conns: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	remote, err := loadgen.StartTest(dep.Assembly.SUT, dep.Assembly.QSL, settings)
	if err != nil {
		log.Fatal(err)
	}
	dep.Remote.Wait()
	if errs := dep.Remote.Errors(); len(errs) > 0 {
		log.Fatalf("remote SUT reported %d errors, first: %v", len(errs), errs[0])
	}
	report("over-the-wire (TCP)", remote)
	snap := dep.Server.Metrics()
	fmt.Printf("  %-22s queue p50/p99 %v/%v, service p50/p99 %v/%v\n",
		"serving breakdown", snap.QueueP50, snap.QueueP99, snap.ServiceP50, snap.ServiceP99)
	fmt.Printf("  %-22s ", "batch histogram")
	prevLe := 0
	for _, b := range snap.BatchHistogram {
		if b.Count > 0 {
			if b.Le == 0 { // unbounded overflow bucket
				fmt.Printf(">%d=%d ", prevLe, b.Count)
			} else {
				fmt.Printf("≤%d=%d ", b.Le, b.Count)
			}
		}
		prevLe = b.Le
	}
	fmt.Printf("(rejected %d, shed %d, expired %d)\n", snap.Rejected, snap.Shed, snap.Expired)

	// Part 3: the same deployment sharded over two replicas. Outputs stay
	// bit-identical (the replicas derive identical weights and data); only
	// capacity and the routing change.
	fleet, err := assembly.ServeLoopback(harness.ServeOptions{
		Replicas: 2,
		Server:   serve.Config{QueueDepth: 256, BatchWait: 2 * time.Millisecond},
		Client:   backend.RemoteConfig{Conns: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	sharded, err := loadgen.StartTest(fleet.Assembly.SUT, fleet.Assembly.QSL, settings)
	if err != nil {
		log.Fatal(err)
	}
	fleet.Remote.Wait()
	if errs := fleet.Remote.Errors(); len(errs) > 0 {
		log.Fatalf("sharded SUT reported %d errors, first: %v", len(errs), errs[0])
	}
	report("2-replica fleet (TCP)", sharded)
	for i, rsnap := range fleet.ReplicaMetrics() {
		fmt.Printf("  %-22s completed %d, service p99 %v\n",
			fmt.Sprintf("replica %d (%s)", i, fleet.Servers[i].Addr()), rsnap.Completed, rsnap.ServiceP99)
	}

	// Part 4: virtual-time sweep across data-center platforms for the heavy
	// classification task (ResNet-50, 15 ms QoS bound).
	heavySpec, err := core.Spec(core.ImageClassificationHeavy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== simulated data-center platforms, %s server scenario (bound %v, p%.0f) ==\n",
		heavySpec.ReferenceModel, heavySpec.ServerLatencyBound, 100*heavySpec.ServerLatencyPercentile)
	fmt.Printf("  %-16s %14s %16s %10s\n", "SYSTEM", "SERVER QPS", "OFFLINE (inf/s)", "RATIO")
	for _, name := range []string{"server-cpu-c2", "dc-fpga-f3", "dc-asic-a1", "dc-gpu-g1", "dc-gpu-g2"} {
		platform, err := simhw.FindPlatform(name)
		if err != nil {
			log.Fatal(err)
		}
		metrics, err := harness.SimulatedSubmission(platform, heavySpec, simhw.SearchOptions{Queries: 4096, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s %14.1f %16.1f %10.2f\n",
			name, metrics.ServerQPS, metrics.OfflineThroughput, metrics.ServerToOfflineRatio())
	}
	fmt.Println("\nthe latency bound costs every platform throughput; platforms that need large")
	fmt.Println("batches to reach peak lose the most (the paper's Figure 6 observation)")
}
