package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/model"
)

// smokeConfig is the shortest run that still goes through every phase.
func smokeConfig() runConfig {
	return runConfig{seed: 3, seconds: 0.2, setups: 1, repLength: 20 * time.Millisecond, tracedReps: 3, isolatedWindow: 500 * time.Microsecond, isolatedQueries: 2000}
}

// TestSmokeAllWorkloads runs every workload untraced and traced and checks
// that each run is correct, fails no operation, and emits every metric of its
// kind — by the names BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			run, want := runUntraced, bf.EndToEnd
			if traced {
				name, run, want = w.name+"/traced", runTraced, bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig()
				if traced {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				rep, err := run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep.fillAbsent()
				line := rep.line()
				// The latency-bound phase judges speed, which a test must
				// not (the race detector alone slows the server tenfold).
				failed := 0
				for _, p := range rep.Phases {
					if p.Name != "latency-bound" {
						failed += p.Failed
					}
				}
				if failed != 0 || line.Attempted < 1 {
					t.Errorf("attempted %d, failed %d; phases %+v", line.Attempted, failed, rep.Phases)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !traced && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
				if traced {
					checkTrace(t, rep, cfg.traceOut)
				}
			})
		}
	}
}

// checkTrace checks what every traced run must show: the self-time shares
// account for the whole traced query time, and the span file is well-formed
// trace-event JSON.
func checkTrace(t *testing.T, rep *report, path string) {
	t.Helper()
	total := 0.0
	for _, row := range rep.SelfTime {
		total += row.Share
	}
	if math.Abs(total-1) > 0.05 {
		t.Errorf("self-time shares sum to %.3f of the traced query time, want within 5%% of 1", total)
	}
	if rep.SpansDropped != 0 {
		t.Errorf("%d spans dropped", rep.SpansDropped)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	complete := 0
	for _, ev := range file.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Error("span file holds no complete events")
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program's
// registries in both directions, bounds and directions included.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(bf.Workloads) && (bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why) {
			t.Errorf("workload %d is %q (%s) in BENCHMARK.json, %q (%s) in the program", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, listed []benchmarkMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(listed), len(defs))
		}
		for _, m := range listed {
			def, ok := findMetric(defs, m.Name)
			if !ok {
				t.Errorf("%s metric %s is not emitted by the program", kind, m.Name)
				continue
			}
			if def.unit != m.Unit || def.better != m.Better || def.bound != m.Bound {
				t.Errorf("%s metric %s: BENCHMARK.json says %+v, the program %+v", kind, m.Name, m, def)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if _, ok := findMetric(endToEnd, "setup_s"); !ok {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestDecoratorsAreTransparent runs the same accuracy sweep through a bare
// and a decorated deployment of every workload: the logs must be identical
// byte for byte, the engine's preferred batch must come through the wrapper,
// and every query must complete exactly once.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // no timing here
			sweep := func(tr *tracer) (*deployment, runResult) {
				d, err := deploy(w, tr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() })
				ts := d.settings(d.w.scenario, seedsFor(5, phaseGate, 0), 0, serverFixedQPS, 256)
				ts.Mode = loadgen.AccuracyMode
				res, err := d.run(ts)
				if err != nil {
					t.Fatal(err)
				}
				return d, res
			}
			_, bare := sweep(nil)
			tr := newTracer()
			d, traced := sweep(tr)

			ref := make([][]byte, d.asm.QSL.TotalSampleCount())
			for _, e := range bare.AccuracyLog {
				ref[e.SampleIndex] = e.Data
			}
			if n, first := compareLog(traced.AccuracyLog, ref); n != 0 {
				t.Errorf("decorated run differs from the bare one on %d samples: %s", n, first)
			}
			if traced.failed != 0 || bare.failed != 0 {
				t.Errorf("failed operations: bare %d, decorated %d", bare.failed, traced.failed)
			}

			inner := d.asm.Engine.(model.BatchSizer).PreferredBatch()
			if got := (&tracedEngine{inner: d.asm.Engine, tr: tr}).PreferredBatch(); got != inner || inner < 1 {
				t.Errorf("PreferredBatch through the decorator = %d, engine says %d", got, inner)
			}

			roots, completed := 0, 0
			for _, s := range tr.recorded() {
				if s.Kind == spanQuery {
					roots++
					if s.End >= s.Start && s.End > 0 {
						completed++
					}
				}
			}
			if roots != traced.QueriesIssued || completed != traced.QueriesCompleted || traced.QueriesCompleted != traced.QueriesIssued {
				t.Errorf("%d query spans (%d completed) for %d queries issued, %d completed", roots, completed, traced.QueriesIssued, traced.QueriesCompleted)
			}
			tr.mu.Lock()
			left := len(tr.bySample) + len(tr.bulk)
			tr.mu.Unlock()
			if left != 0 {
				t.Errorf("%d queries still registered as in flight after the run", left)
			}
		})
	}
}

// TestGateCatchesAWrongAnswer checks the comparison the correctness gate
// rests on.
func TestGateCatchesAWrongAnswer(t *testing.T) {
	ref := [][]byte{{1}, {2}, {3}}
	good := []loadgen.AccuracyEntry{{SampleIndex: 2, Data: []byte{3}}, {SampleIndex: 0, Data: []byte{1}}, {SampleIndex: 1, Data: []byte{2}}}
	if n, first := compareLog(good, ref); n != 0 {
		t.Errorf("identical log: %d mismatches (%s)", n, first)
	}
	for name, log := range map[string][]loadgen.AccuracyEntry{
		"wrong byte": {{SampleIndex: 0, Data: []byte{1}}, {SampleIndex: 1, Data: []byte{9}}, {SampleIndex: 2, Data: []byte{3}}},
		"missing":    {{SampleIndex: 0, Data: []byte{1}}, {SampleIndex: 2, Data: []byte{3}}},
		"duplicate":  {{SampleIndex: 0, Data: []byte{1}}, {SampleIndex: 1, Data: []byte{2}}, {SampleIndex: 1, Data: []byte{2}}, {SampleIndex: 2, Data: []byte{3}}},
		"stranger":   append(append([]loadgen.AccuracyEntry(nil), good...), loadgen.AccuracyEntry{SampleIndex: 7, Data: []byte{1}}),
	} {
		if n, _ := compareLog(log, ref); n != 1 {
			t.Errorf("%s: %d mismatches, want 1", name, n)
		}
	}
}

// TestSelfTimeArithmetic checks attribution on a hand-built tree with
// overlapping siblings: every instant of the root goes to exactly one span.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Kind: spanQuery, Parent: -1, Start: 0, End: 100},                // 0: root
		{Kind: spanSUT, Parent: 0, Start: 10, End: 90},                   // 1: inside the root
		{Kind: spanGet, Parent: 1, Start: 20, End: 30},                   // 2
		{Kind: spanPredict, Lead: true, Parent: 1, Start: 25, End: 60},   // 3: overlaps the get by 5
		{Kind: spanPredict, Lead: false, Parent: 1, Start: 50, End: 120}, // 4: overlaps 3, runs past its parent
		{Kind: spanQuery, Parent: -1, Start: 200, End: 150},              // 5: never completed
	}
	a := attribute(spans)
	if len(a.roots) != 1 || a.total != 100 {
		t.Fatalf("roots %v total %d, want one root of 100", a.roots, a.total)
	}
	// Wall: root alone 0-10 and 90-100; SUT alone 10-20; get 20-25 (then the
	// later-started predict wins); predict 25-90 (clipped to its parent).
	want := [numSpanKinds]int64{spanQuery: 20, spanSUT: 10, spanGet: 5, spanPredict: 65}
	if a.wall != want {
		t.Errorf("wall attribution %v, want %v", a.wall, want)
	}
	var sum int64
	for _, v := range a.wall {
		sum += v
	}
	if sum != a.total {
		t.Errorf("attributed %d of %d", sum, a.total)
	}
	// Busy: self time is duration minus the union of children. Root 100-80,
	// SUT 80 - union(20..90)=70 -> 10, get 10, lead predict 35; the non-lead
	// predict span is the same call seen from another query and not counted.
	wantBusy := [numSpanKinds]int64{spanQuery: 20, spanSUT: 10, spanGet: 10, spanPredict: 35}
	if a.busy != wantBusy {
		t.Errorf("busy %v, want %v", a.busy, wantBusy)
	}
	wantCount := [numSpanKinds]int64{1, 1, 1, 1}
	if a.count != wantCount {
		t.Errorf("count %v, want %v", a.count, wantCount)
	}
}

// TestScheduleLag checks that finishRuns recovers each query's lag without
// knowing when the run started.
func TestScheduleLag(t *testing.T) {
	const runStart = 1000
	spans := []span{
		{Kind: spanQuery, Parent: -1, Run: 1, Query: 7, Start: runStart + 10, End: runStart + 50, Lateness: runStart + 10 - 10}, // on time
		{Kind: spanQuery, Parent: -1, Run: 1, Query: 8, Start: runStart + 45, End: runStart + 90, Lateness: runStart + 45 - 20}, // 25 late
		{Kind: spanSUT, Parent: 1, Run: 1, Start: runStart + 46, End: runStart + 90},
		{Kind: spanGet, Parent: 2, Run: 1, Start: runStart + 47, End: runStart + 48},
	}
	finishRuns(spans)
	if spans[0].Lateness != 0 || spans[1].Lateness != 25 {
		t.Errorf("lags %d and %d, want 0 and 25", spans[0].Lateness, spans[1].Lateness)
	}
	if spans[1].Start != runStart+20 {
		t.Errorf("late root starts at %d, want its scheduled arrival %d", spans[1].Start, runStart+20)
	}
	if spans[2].Query != 8 || spans[3].Query != 8 {
		t.Errorf("query id not copied down: %d, %d", spans[2].Query, spans[3].Query)
	}
}

// TestLadderSearch drives the search with synthetic SUTs of known capacity.
func TestLadderSearch(t *testing.T) {
	rungs := ladder()
	if len(rungs) != 36 || rungs[0] != 2000 || math.Abs(rungs[1]/rungs[0]-1.08) > 1e-12 {
		t.Fatalf("ladder is %d rungs from %v", len(rungs), rungs[0])
	}
	// A SUT that is valid up to its capacity and saturated beyond it.
	for _, capacity := range []float64{1000, 2000, 5600, 9999, 29000, 1e6} {
		want := -1
		for k, r := range rungs {
			if r <= capacity {
				want = k
			}
		}
		got, confirmed, above, probes := searchLadder(len(rungs), func(rung int) probe {
			return probe{Valid: rungs[rung] <= capacity, Saturated: rungs[rung] > capacity}
		})
		if got != want {
			t.Errorf("capacity %v: found rung %d, want %d", capacity, got, want)
		}
		if len(probes) > 8 {
			t.Errorf("capacity %v: %d probes", capacity, len(probes))
		}
		if (confirmed != nil) != (want >= 0) || (confirmed != nil && (confirmed.Rung != want || !confirmed.Valid)) {
			t.Errorf("capacity %v: confirming probe %+v", capacity, confirmed)
		}
		if wantAbove := want+1 < len(rungs); (above != nil) != wantAbove || (above != nil && (above.Rung != want+1 || above.Valid)) {
			t.Errorf("capacity %v: the rung above the winner must have been probed and failed, got %+v", capacity, above)
		}
	}

	// Validity is not monotone: a hump of the tail at a middling rate fails
	// rungs 10-12 although everything up to rung 20 is served; rungs 21-22
	// miss the bound without being saturated. The answer is rung 20.
	got, _, above, _ := searchLadder(len(rungs), func(rung int) probe {
		return probe{Valid: rung <= 20 && (rung < 10 || rung > 12), Saturated: rung > 22}
	})
	if got != 20 || above == nil || above.Rung != 21 {
		t.Errorf("hump: found rung %d with %+v above it, want 20 with rung 21 above", got, above)
	}

	// A rung that passes once and then fails its confirmation: the search
	// steps down to the rung below and confirms that one.
	const flaky = 13
	seen := 0
	got, confirmed, above, _ := searchLadder(len(rungs), func(rung int) probe {
		if rung == flaky {
			seen++
			return probe{Valid: seen == 1}
		}
		return probe{Valid: rung < flaky, Saturated: rung > flaky}
	})
	if got != flaky-1 || confirmed.Rung != flaky-1 || above.Rung != flaky || above.Valid {
		t.Errorf("flaky rung %d: found %d (confirmed by %+v, above %+v), want %d", flaky, got, confirmed, above, flaky-1)
	}
}

// TestQuietOnes checks which repetitions the host probes keep.
func TestQuietOnes(t *testing.T) {
	ms := func(before, after float64) bracket {
		return bracket{time.Duration(before * 1e6), time.Duration(after * 1e6)}
	}
	fastest := 2 * time.Millisecond
	brackets := []bracket{ms(2.0, 2.1), ms(2.1, 3.4), ms(3.4, 2.0), ms(2.0, 2.29), ms(2.29, 2.31)}
	keep, enough := quietOnes(brackets, fastest, 2)
	if want := []bool{true, false, false, true, false}; !equalBools(keep, want) || !enough {
		t.Errorf("kept %v (enough %v), want %v: a slow probe on either side discards", keep, enough, want)
	}
	// Too few are quiet: the quietest make up the number, and it shows.
	keep, enough = quietOnes(brackets, fastest, 4)
	if want := []bool{true, true, false, true, true}; !equalBools(keep, want) || enough {
		t.Errorf("kept %v (enough %v), want %v with enough false", keep, enough, want)
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuartilesMatchPython pins the quartile estimator to
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestCompareVerdicts checks the four verdicts and the exit condition.
func TestCompareVerdicts(t *testing.T) {
	lower := benchmarkMetric{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := benchmarkMetric{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	tight := func(v float64) metricValue {
		return metricValue{Value: v, Repetitions: []float64{v, v, v}, Q1: v * 0.99, Q3: v * 1.01}
	}
	wide := func(v float64) metricValue {
		return metricValue{Value: v, Repetitions: []float64{v, v, v}, Q1: v * 0.8, Q3: v * 1.2}
	}
	for _, c := range []struct {
		name     string
		old, new metricValue
		m        benchmarkMetric
		want     string
	}{
		{"slower beyond bound", tight(100), tight(115), lower, verdictWorse},
		{"slower within bound", tight(100), tight(108), lower, verdictSame},
		{"faster beyond bound", tight(100), tight(80), lower, verdictBetter},
		{"throughput drop", tight(1000), tight(900), higher, verdictWorse},
		{"throughput gain", tight(1000), tight(1100), higher, verdictBetter},
		{"too noisy to tell", wide(100), tight(130), lower, verdictUnresolved},
	} {
		if got, _ := judge(c.old, c.new, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(p50 float64, failed int) *resultsFile {
		return &resultsFile{Reports: []*report{{Workload: "w", Phases: []phaseReport{{Name: "timed", Attempted: 100, Failed: failed}},
			Metrics: map[string]metricValue{"latency_p50_us": tight(p50)}}}}
	}
	bf := &benchmarkFile{EndToEnd: []benchmarkMetric{lower}}
	var out bytes.Buffer
	if compare(&out, mk(100, 0), mk(101, 0), bf) {
		t.Errorf("unchanged results reported as worse:\n%s", out.String())
	}
	if !compare(&out, mk(100, 0), mk(150, 0), bf) {
		t.Error("a 50% slowdown was not reported as worse")
	}
	if !compare(&out, mk(100, 0), mk(100, 3), bf) {
		t.Error("a larger failed share was not reported as worse")
	}
	if !strings.Contains(out.String(), "latency_p50_us") {
		t.Errorf("no row for the metric:\n%s", out.String())
	}
}
