// Command mlperf-bench is the repository's benchmark: the ruler later
// performance claims are measured with. It drives the real stack through its
// public entry points only, reports the scenario metrics of four workloads
// from untraced runs, and in a separate traced run attributes time to layers
// with decorators of its own. See benchmarks/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all (each in a process of its own, untraced then traced)")
		seed         = flag.Uint64("seed", 1, "seed of the query stream: sample choice and arrival schedule")
		seconds      = flag.Float64("seconds", 25, "length of the timed window of an untraced run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		traceOut     = flag.String("trace-out", "", "with -trace 1, write the spans as Chrome/Perfetto JSON to this file")
		out          = flag.String("out", "", "write the full report (repetitions, quartiles, phases, host) as JSON to this file")
		short        = flag.Bool("short", false, "smoke run: 2 s window, 0.1 s repetitions, one set-up")
		doCompare    = flag.Bool("compare", false, "compare two -out files: mlperf-bench -compare old.json new.json")
		benchFile    = flag.String("benchmark-json", "BENCHMARK.json", "BENCHMARK.json to take regression bounds from (with -compare)")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: mlperf-bench -compare old.json new.json")
			return 2
		}
		return compareMain(flag.Arg(0), flag.Arg(1), *benchFile)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "mlperf-bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mlperf-bench: -seconds must be positive")
		return 2
	}
	cfg := fullConfig(*seed, *seconds)
	if *short {
		cfg = shortConfig(*seed)
	}
	cfg.traceOut = *traceOut
	if *workloadName == "all" {
		return runAll(cfg, *short, *out)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "mlperf-bench: unknown workload %q (have %s, all)\n", *workloadName, strings.Join(names, ", "))
		return 2
	}

	// One process hosts LoadGen, client and server; nothing may run wider
	// than the machine.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, cfg)
	} else {
		rep, err = runUntraced(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlperf-bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.fillAbsent()
	if *out != "" {
		if err := writeJSON(*out, resultsFile{Reports: []*report{rep}}); err != nil {
			fmt.Fprintf(os.Stderr, "mlperf-bench: %v\n", err)
			return 1
		}
	}
	printReport(rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// fullConfig is the run shape BENCHMARK.json's command measures with.
func fullConfig(seed uint64, seconds float64) runConfig {
	return runConfig{seed: seed, seconds: seconds, setups: 9, repLength: 150 * time.Millisecond, tracedReps: 9, isolatedWindow: 30 * time.Millisecond, isolatedQueries: 20000}
}

// shortConfig is the smoke run of -short.
func shortConfig(seed uint64) runConfig {
	return runConfig{seed: seed, seconds: 2, setups: 1, repLength: 100 * time.Millisecond, tracedReps: 3, isolatedWindow: 2 * time.Millisecond, isolatedQueries: 4000}
}

// resultLine is the last line of standard output: the whole result in the
// form the benchmark's driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() resultLine {
	attempted, failed := r.totals()
	line := resultLine{Correct: r.Correct, Attempted: attempted, Failed: failed, Metrics: map[string]lineMetric{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	return line
}

// printReport writes the human-readable account, then the result line.
func printReport(r *report) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("%s (%s, seed %d, %.3g s window, %.3g s repetitions) on %d x %s, GOMAXPROCS %d, %s, simd %s\n",
		r.Workload, mode, r.Seed, r.Seconds, r.RepSeconds, r.Host.NProc, r.Host.CPUModel, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.SIMD)
	for _, p := range r.Phases {
		fmt.Printf("  phase %-24s ops_attempted %8d  ops_failed %d  %s\n", p.Name, p.Attempted, p.Failed, p.Detail)
	}
	for _, f := range r.Flags {
		fmt.Printf("  flag  %s\n", f)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		reps := ""
		if len(m.Repetitions) > 1 {
			reps = fmt.Sprintf("q1 %.5g q3 %.5g of %d", m.Q1, m.Q3, len(m.Repetitions))
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s is better\t%s\t%s\n", d.name, m.Value, m.Unit, d.better, reps, m.Description)
	}
	for _, a := range r.Also {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t%s\t\tq1 %.5g q3 %.5g of %d\t%s; not a metric of this run\n", a.Name, a.Value, a.Unit, a.Q1, a.Q3, len(a.Repetitions), a.Description)
	}
	tw.Flush()
	if len(r.Search) > 0 {
		fmt.Println("  capacity search:")
		for _, p := range r.Search {
			fmt.Printf("    rung %2d  offered %7.0f  achieved %7.0f  p50 %6.2f ms  p99 %6.2f ms  valid %-5v %2d repetitions  %s\n", p.Rung, p.Rate, p.Achieved, p.P50Millis, p.P99Millis, p.Valid, p.Reps, p.Why)
		}
	}
	if len(r.SelfTime) > 0 {
		fmt.Println("  self time by layer (share: part of the queries' wall time attributed to the layer):")
		tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "    layer\tcount\tbusy ms\twaited ms\tshare\t")
		total := 0.0
		for _, row := range r.SelfTime {
			fmt.Fprintf(tw, "    %s\t%d\t%.2f\t%.2f\t%.1f%%\t\n", row.Layer, row.Count, row.BusyMillis, row.WaitedMillis, 100*row.Share)
			total += row.Share
		}
		tw.Flush()
		fmt.Printf("    shares sum to %.1f%% of the traced query time; %d spans dropped\n", 100*total, r.SpansDropped)
	}
	data, err := json.Marshal(r.line())
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(data))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll re-executes this binary once per workload and mode, so set-up time,
// peak memory and GC state belong to one workload each, and merges the
// children's reports.
func runAll(cfg runConfig, short bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlperf-bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Dir(self), "mlperf-bench-all-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlperf-bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var all resultsFile
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, trace))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-out", part}
			if short {
				args = append(args, "-short")
			}
			if trace == 1 && cfg.traceOut != "" {
				ext := filepath.Ext(cfg.traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ext)+"-"+w.name+ext)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "mlperf-bench: %s (trace %d): %v\n", w.name, trace, err)
				status = 1
			}
			if rf, err := readResults(part); err == nil {
				all.Reports = append(all.Reports, rf.Reports...)
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fmt.Fprintf(os.Stderr, "mlperf-bench: %v\n", err)
			return 1
		}
	}
	// One line for the lot: every metric as workload/metric.
	line := resultLine{Correct: status == 0, Metrics: map[string]lineMetric{}}
	for _, r := range all.Reports {
		l := r.line()
		line.Attempted += l.Attempted
		line.Failed += l.Failed
		line.Correct = line.Correct && l.Correct
		for name, m := range l.Metrics {
			line.Metrics[r.Workload+"/"+name] = m
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
	return status
}

func compareMain(oldPath, newPath, benchPath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "mlperf-bench: %v\n", err)
		return 2
	}
	oldFile, err := readResults(oldPath)
	if err != nil {
		return fail(err)
	}
	newFile, err := readResults(newPath)
	if err != nil {
		return fail(err)
	}
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return fail(err)
	}
	if compare(os.Stdout, oldFile, newFile, bf) {
		return 1
	}
	return 0
}
