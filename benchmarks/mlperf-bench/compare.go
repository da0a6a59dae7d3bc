package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultsFile is what -out writes: one report per (workload, traced) run.
type resultsFile struct {
	Reports []*report `json:"reports"`
}

// readJSON decodes the file at path into a new T.
func readJSON[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func readResults(path string) (*resultsFile, error) { return readJSON[resultsFile](path) }

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) { return readJSON[benchmarkFile](path) }

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's new median against its old one. The change is
// "worse" or "better" when the medians differ by more than the bound in that
// direction, "unresolved" when either side's own spread (inter-quartile
// distance over median) is wider than the bound — the runs cannot tell a
// change of that size from noise — and "same" otherwise. worsening is the
// signed share by which new is worse than old.
func judge(old, new metricValue, m benchmarkMetric) (verdict string, worsening float64) {
	if old.Value == 0 {
		return verdictUnresolved, 0
	}
	worsening = (new.Value - old.Value) / old.Value
	if m.Better == "higher" {
		worsening = -worsening
	}
	spreadOf := func(v metricValue) float64 {
		if v.Value == 0 || len(v.Repetitions) < 2 {
			return 0
		}
		return (v.Q3 - v.Q1) / v.Value
	}
	switch {
	case max(spreadOf(old), spreadOf(new)) > m.Bound:
		return verdictUnresolved, worsening
	case worsening > m.Bound:
		return verdictWorse, worsening
	case worsening < -m.Bound:
		return verdictBetter, worsening
	default:
		return verdictSame, worsening
	}
}

// failedShare is failed over attempted operations across a report's phases.
func failedShare(r *report) float64 {
	attempted, failed := r.totals()
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compare prints one row per end-to-end metric and workload present in both
// files and reports whether anything got worse: a metric beyond its bound, or
// a workload failing a larger share of its operations.
func compare(out io.Writer, oldFile, newFile *resultsFile, bf *benchmarkFile) (worse bool) {
	index := func(rf *resultsFile) map[string]*report {
		m := map[string]*report{}
		for _, r := range rf.Reports {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	olds, news := index(oldFile), index(newFile)
	names := make([]string, 0, len(news))
	for name := range news {
		if _, ok := olds[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-24s %-20s %14s %14s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "new/old", "bound", "verdict")
	for _, name := range names {
		o, n := olds[name], news[name]
		for _, m := range bf.EndToEnd {
			ov, ok1 := o.Metrics[m.Name]
			nv, ok2 := n.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			verdict, _ := judge(ov, nv, m)
			ratio := 0.0
			if ov.Value != 0 {
				ratio = nv.Value / ov.Value
			}
			quart := func(v metricValue) string {
				if len(v.Repetitions) < 2 {
					return "-"
				}
				return fmt.Sprintf("%.4g..%.4g", v.Q1, v.Q3)
			}
			fmt.Fprintf(out, "%-24s %-20s %14.6g %14s %14.6g %14s %8.3fx %6.0f%%  %s (%s is better; base %.6g %s)\n",
				name, m.Name, ov.Value, quart(ov), nv.Value, quart(nv), ratio, 100*m.Bound, verdict, m.Better, ov.Value, m.Unit)
			if verdict == verdictWorse {
				worse = true
			}
		}
		if of, nf := failedShare(o), failedShare(n); nf > of {
			fmt.Fprintf(out, "%-24s failed share rose from %.4g to %.4g: worse\n", name, of, nf)
			worse = true
		}
	}
	return worse
}
