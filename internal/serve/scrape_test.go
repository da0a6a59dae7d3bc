package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlperf/internal/tensor"
	"mlperf/internal/trace"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parseExposition parses a full Prometheus text-format (0.0.4) payload,
// enforcing the grammar rules a real scraper enforces: comment lines are
// HELP/TYPE with valid metric names, TYPE appears at most once per family and
// before any of its samples, sample names belong to an announced family
// (allowing the _sum/_count/_bucket suffixes for summaries and histograms),
// label syntax is well-formed, and no two samples share a name+labelset.
func parseExposition(t *testing.T, body string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	seen := map[string]bool{}
	for _, raw := range strings.Split(body, "\n") {
		line := strings.TrimRight(raw, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				t.Fatalf("malformed comment line %q", line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("invalid metric name in %q", line)
			}
			switch fields[1] {
			case "HELP":
				if helped[name] {
					t.Errorf("duplicate HELP for %s", name)
				}
				helped[name] = true
			case "TYPE":
				if types[name] != "" {
					t.Errorf("duplicate TYPE for %s", name)
				}
				if sampled[name] {
					t.Errorf("TYPE for %s appears after its samples", name)
				}
				if len(fields) != 4 {
					t.Fatalf("TYPE line %q missing the type", line)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					t.Fatalf("unknown type %q in %q", fields[3], line)
				}
				types[name] = fields[3]
			default:
				t.Fatalf("comment line %q is neither HELP nor TYPE", line)
			}
			continue
		}
		s := parseSampleLine(t, line)
		base := familyOf(s.name, types)
		if base == "" {
			t.Fatalf("sample %q belongs to no announced family", line)
		}
		sampled[base] = true
		key := s.name + "|" + labelKey(s.labels)
		if seen[key] {
			t.Errorf("duplicate sample %q", line)
		}
		seen[key] = true
		samples = append(samples, s)
	}
	for name := range types {
		if !sampled[name] {
			t.Errorf("family %s announced but has no samples", name)
		}
	}
	return types, samples
}

// parseSampleLine splits `name{label="v",...} value` (labels optional).
func parseSampleLine(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: line}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			t.Fatalf("unbalanced braces in %q", line)
		}
		for _, pair := range splitLabels(t, rest[i+1:end], line) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				t.Fatalf("label %q in %q has no '='", pair, line)
			}
			name, quoted := pair[:eq], pair[eq+1:]
			if !labelNameRe.MatchString(name) {
				t.Fatalf("invalid label name %q in %q", name, line)
			}
			val, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("label value %s in %q is not a quoted string: %v", quoted, line, err)
			}
			if _, dup := s.labels[name]; dup {
				t.Fatalf("label %q repeated in %q", name, line)
			}
			s.labels[name] = val
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		s.name, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("invalid sample name in %q", line)
	}
	// The value may be followed by an optional timestamp; this exporter never
	// emits one, so a second field is a bug.
	if strings.ContainsAny(rest, " \t") {
		t.Fatalf("unexpected trailing fields in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("unparseable value in %q: %v", line, err)
	}
	s.value = v
	return s
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(t *testing.T, body, line string) []string {
	t.Helper()
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(body):
			cur.WriteByte(c)
			i++
			cur.WriteByte(body[i])
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		t.Fatalf("unterminated quote in %q", line)
	}
	if cur.Len() > 0 {
		out = append(out, strings.TrimSpace(cur.String()))
	}
	return out
}

// familyOf maps a sample name back to its announced family, honouring the
// summary and histogram child suffixes.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		switch types[base] {
		case "summary":
			if suffix != "_bucket" {
				return base
			}
		case "histogram":
			return base
		}
	}
	return ""
}

func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// TestScrapeWellFormed scrapes a live metrics endpoint — with tracing,
// runtime and latency families all populated — and validates the whole
// payload against the exposition grammar, then pins the family shapes the
// observability stack depends on: latency percentiles are summaries with
// quantile labels, trace stages are histograms with cumulative non-decreasing
// le buckets where the +Inf bucket equals _count, and the runtime families
// are present with sane values.
func TestScrapeWellFormed(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1})
	s := newTestServer(t, Config{
		Workers: 2, MaxBatch: 2, BatchWait: time.Millisecond,
		QueueDepth: 8, MetricsAddr: "127.0.0.1:0", Tracer: tr,
	})
	tc := dialTest(t, s.Addr())
	for i := 0; i < 10; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	tc.read(10)
	// Guarantee a fully-populated stage histogram independent of scheduling:
	// publish one record that exercises every server stage.
	rec := &trace.Record{TraceID: 1, Model: "scrape", Origin: trace.OriginServer,
		Start: time.Now().UnixNano(), End2End: 6_000_000}
	for _, st := range []trace.Stage{trace.StageAdmit, trace.StageQueue, trace.StageAssembly,
		trace.StageService, trace.StageEncode, trace.StageReply} {
		rec.Stages[st] = 1_000_000
	}
	tr.Model("scrape").Publish(rec)

	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(raw))

	wantTypes := map[string]string{
		"mlperf_serve_queue_latency_seconds":   "summary",
		"mlperf_serve_service_latency_seconds": "summary",
		"mlperf_runtime_heap_bytes":            "gauge",
		"mlperf_runtime_gc_pause_seconds":      "summary",
		"mlperf_runtime_goroutines":            "gauge",
		"mlperf_trace_stage_seconds":           "histogram",
		"mlperf_trace_e2e_seconds":             "histogram",
	}
	for name, typ := range wantTypes {
		if got := types[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}

	// Index samples per metric name for the shape checks.
	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}

	// Summaries: every base sample carries a quantile label.
	for _, fam := range []string{"mlperf_serve_queue_latency_seconds", "mlperf_serve_service_latency_seconds"} {
		if len(byName[fam]) == 0 {
			t.Errorf("summary %s has no quantile samples", fam)
		}
		for _, s := range byName[fam] {
			q, ok := s.labels["quantile"]
			if !ok {
				t.Errorf("summary sample %q lacks a quantile label", s.line)
				continue
			}
			if v, err := strconv.ParseFloat(q, 64); err != nil || v < 0 || v > 1 {
				t.Errorf("quantile %q out of [0,1] in %q", q, s.line)
			}
		}
	}

	// Histograms: per labelset, le buckets are cumulative, non-decreasing,
	// include +Inf, and +Inf equals the family's _count.
	for _, fam := range []string{"mlperf_trace_stage_seconds", "mlperf_trace_e2e_seconds"} {
		counts := map[string]float64{}
		for _, s := range byName[fam+"_count"] {
			counts[labelKey(s.labels)] = s.value
		}
		if len(counts) == 0 {
			t.Errorf("histogram %s has no _count samples", fam)
		}
		type series struct {
			les  []float64
			vals []float64
			inf  float64
		}
		bySeries := map[string]*series{}
		for _, s := range byName[fam+"_bucket"] {
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("bucket sample %q lacks le", s.line)
			}
			rest := map[string]string{}
			for k, v := range s.labels {
				if k != "le" {
					rest[k] = v
				}
			}
			sr := bySeries[labelKey(rest)]
			if sr == nil {
				sr = &series{}
				bySeries[labelKey(rest)] = sr
			}
			if le == "+Inf" {
				sr.inf = s.value
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("unparseable le %q in %q", le, s.line)
			}
			sr.les = append(sr.les, bound)
			sr.vals = append(sr.vals, s.value)
		}
		for key, sr := range bySeries {
			if !sort.Float64sAreSorted(sr.les) {
				t.Errorf("%s{%s}: le bounds not ascending", fam, key)
			}
			if !sort.Float64sAreSorted(sr.vals) {
				t.Errorf("%s{%s}: bucket counts not cumulative", fam, key)
			}
			if n := len(sr.vals); n > 0 && sr.inf < sr.vals[n-1] {
				t.Errorf("%s{%s}: +Inf bucket %v below last bucket %v", fam, key, sr.inf, sr.vals[n-1])
			}
			if want, ok := counts[key]; !ok || sr.inf != want {
				t.Errorf("%s{%s}: +Inf bucket %v != _count %v", fam, key, sr.inf, want)
			}
		}
	}

	// The synthetic record must show up: six stages for model "scrape".
	stageCount := 0.0
	for _, s := range byName["mlperf_trace_stage_seconds_count"] {
		if s.labels["model"] == "scrape" {
			stageCount += s.value
		}
	}
	if stageCount != 6 {
		t.Errorf("model=scrape stage observations = %v, want 6", stageCount)
	}

	// Runtime families carry live, finite values.
	for _, fam := range []string{"mlperf_runtime_heap_bytes", "mlperf_runtime_goroutines"} {
		ss := byName[fam]
		if len(ss) != 1 {
			t.Fatalf("%s: %d samples, want 1", fam, len(ss))
		}
		if v := ss[0].value; v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("%s = %v, want a positive finite value", fam, v)
		}
	}
	if len(byName["mlperf_runtime_gc_pause_seconds_count"]) != 1 {
		t.Errorf("gc pause summary missing its _count")
	}
}

// promValues parses a Prometheus text page into metric{labels} -> value.
func promValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestPrometheusEndpointMatchesWireMetrics drives traffic, fetches the
// metrics snapshot over the wire protocol, scrapes the HTTP endpoint, and
// asserts the scraped counters equal the wire-fetched ones — the external
// scraper and the conformance audit must see the same numbers.
func TestPrometheusEndpointMatchesWireMetrics(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, MaxBatch: 2, BatchWait: time.Millisecond,
		QueueDepth: 8, MetricsAddr: "127.0.0.1:0",
	})
	if s.MetricsAddr() == "" {
		t.Fatal("metrics endpoint not bound")
	}
	tc := dialTest(t, s.Addr())
	for i := 0; i < 10; i++ {
		tc.predict(uint64(i+1), i, time.Time{})
	}
	tc.read(10)

	// Wire-fetched snapshot (the same frames backend.Remote uses).
	tc.mu.Lock()
	err := WriteMetricsRequest(tc.c, 42, "")
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := ReadClientFrame(tc.r)
	if err != nil {
		t.Fatal(err)
	}
	var wire Snapshot
	if err := json.Unmarshal(frame.MetricsJSON, &wire); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := promValues(t, string(body))

	for name, want := range map[string]uint64{
		`mlperf_serve_admitted_total{model="default"}`:  wire.Admitted,
		`mlperf_serve_completed_total{model="default"}`: wire.Completed,
		`mlperf_serve_rejected_total{model="default"}`:  wire.Rejected,
		`mlperf_serve_expired_total{model="default"}`:   wire.Expired,
		`mlperf_serve_errors_total{model="default"}`:    wire.Errors,
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("scrape lacks %s\n%s", name, body)
			continue
		}
		if uint64(got) != want {
			t.Errorf("%s = %v, scraped vs wire %d", name, got, want)
		}
	}
	for name, want := range map[string]int{
		`mlperf_serve_workers{model="default"}`:     wire.Workers,
		`mlperf_serve_queue_limit{model="default"}`: wire.QueueLimit,
		`mlperf_serve_max_batch{model="default"}`:   wire.MaxBatch,
	} {
		if got := vals[name]; int(got) != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	// Histogram buckets must be cumulative and end at the wire total.
	var batches uint64
	for _, b := range wire.BatchHistogram {
		batches += b.Count
	}
	if got := vals[`mlperf_serve_batch_size_count{model="default"}`]; uint64(got) != batches {
		t.Errorf("batch_size_count %v, wire says %d", got, batches)
	}
	if got := vals[`mlperf_serve_batch_size_bucket{model="default",le="+Inf"}`]; uint64(got) != batches {
		t.Errorf("+Inf bucket %v, want cumulative total %d", got, batches)
	}

	// The kernel configuration rides both channels: the wire snapshot carries
	// it as a struct, the scrape as mlperf_kernel_* families, and they must
	// agree with the live tensor dispatch state.
	kc := tensor.CurrentKernelConfig()
	if wire.Kernel == nil {
		t.Fatal("wire snapshot lacks kernel config")
	}
	if *wire.Kernel != kc {
		t.Errorf("wire kernel config %+v, want %+v", *wire.Kernel, kc)
	}
	if got, ok := vals[`mlperf_kernel_info{simd="`+kc.SIMD+`"}`]; !ok || got != 1 {
		t.Errorf("scrape lacks mlperf_kernel_info{simd=%q}\n%s", kc.SIMD, body)
	}
	if got := vals["mlperf_kernel_flop_threshold"]; int(got) != kc.FlopThreshold {
		t.Errorf("mlperf_kernel_flop_threshold = %v, want %d", got, kc.FlopThreshold)
	}
	if got := vals["mlperf_kernel_panel_bytes"]; int(got) != kc.PanelBytes {
		t.Errorf("mlperf_kernel_panel_bytes = %v, want %d", got, kc.PanelBytes)
	}
	if _, ok := vals["mlperf_kernel_calibrated"]; !ok {
		t.Errorf("scrape lacks mlperf_kernel_calibrated")
	}

}
