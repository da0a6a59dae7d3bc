// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I–VII, Figures 5–8, the Section V-B audits and the
// Section VII-D modeled-versus-measured analysis). Each experiment returns a
// formatted text report; the mlperf-experiments command prints them and the
// repository-level benchmarks time them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"mlperf/internal/audit"
	"mlperf/internal/core"
	"mlperf/internal/evalcorpus"
	"mlperf/internal/harness"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/simhw"
	"mlperf/internal/stats"
)

// Options tunes how heavy the experiment computations are.
type Options struct {
	// Seed drives every simulation in the experiment suite.
	Seed uint64
	// SearchQueries is the virtual-time trial size for metric searches.
	SearchQueries int
	// Figure6Systems is how many systems the Figure 6 sweep evaluates
	// (the paper plots 11).
	Figure6Systems int
	// DatasetSamples sizes the synthetic data sets for native runs (audits).
	DatasetSamples int
}

// DefaultOptions returns a configuration that regenerates every experiment in
// seconds on a laptop while preserving the published shapes.
func DefaultOptions() Options {
	return Options{Seed: 2020, SearchQueries: 1024, Figure6Systems: 11, DatasetSamples: 64}
}

func (o *Options) normalize() {
	if o.Seed == 0 {
		o.Seed = 2020
	}
	if o.SearchQueries <= 0 {
		o.SearchQueries = 1024
	}
	if o.Figure6Systems <= 0 {
		o.Figure6Systems = 11
	}
	if o.DatasetSamples <= 0 {
		o.DatasetSamples = 64
	}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) (string, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: tasks, reference models, parameters, ops and quality targets", Table1},
		{"table2", "Table II: scenario descriptions and metrics", Table2},
		{"table3", "Table III: multistream arrival intervals and server QoS constraints", Table3},
		{"table4", "Table IV: query requirements for statistical confidence", Table4},
		{"table5", "Table V: queries and samples per query for each task", Table5},
		{"table6", "Table VI: closed-division coverage of models and scenarios", Table6},
		{"table7", "Table VII: framework versus hardware architecture", Table7},
		{"fig5", "Figure 5: closed-division result share per model", Figure5},
		{"fig6", "Figure 6: server-to-offline throughput ratio per system and model", Figure6},
		{"fig7", "Figure 7: results per processor architecture", Figure7},
		{"fig8", "Figure 8: relative performance span per model and scenario", Figure8},
		{"audits", "Section V-B: accuracy-verification, caching and alternate-seed audits", Audits},
		{"modeled-vs-measured", "Section VII-D: operation count versus measured throughput", ModeledVsMeasured},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// table builds an aligned text table.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 2, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}

// Table1 reports the reference models against the published Table I figures.
func Table1(opts Options) (string, error) {
	opts.normalize()
	var rows [][]string
	for _, name := range model.AllNames() {
		// The detectors predict 5 object classes, the classifiers 10 labels.
		cfg := model.Config{Classes: 10, Vocab: 64, Seed: opts.Seed}
		if name == model.SSDResNet34 || name == model.SSDMobileNet {
			cfg.Classes = 5
		}
		m, err := model.New(name, cfg)
		if err != nil {
			return "", err
		}
		info := m.Info()
		rows = append(rows, []string{
			info.Area,
			info.TaskLabel,
			info.PaperName,
			fmt.Sprintf("%d", info.Params),
			fmt.Sprintf("%d", info.OpsPerInput),
			fmt.Sprintf("%d", info.PaperParams),
			fmt.Sprintf("%d", info.PaperOpsPerInput),
			fmt.Sprintf("%s >= %.2f%% of FP32 (%.4g)", info.QualityMetric, 100*info.TargetRatio, info.PaperReferenceQuality),
		})
	}
	header := []string{"AREA", "TASK", "REFERENCE MODEL", "PARAMS (mini)", "OPS/INPUT (mini)", "PARAMS (paper)", "OPS/INPUT (paper)", "QUALITY TARGET"}
	return "Table I — tasks and reference models\n" + table(header, rows), nil
}

// Table2 reports the four scenarios, their metrics and examples.
func Table2(opts Options) (string, error) {
	rows := make([][]string, 0, 4)
	samples := map[loadgen.Scenario]string{
		loadgen.SingleStream: "1",
		loadgen.MultiStream:  "N",
		loadgen.Server:       "1",
		loadgen.Offline:      "at least 24,576",
	}
	generation := map[loadgen.Scenario]string{
		loadgen.SingleStream: "sequential",
		loadgen.MultiStream:  "arrival interval with dropping",
		loadgen.Server:       "Poisson distribution",
		loadgen.Offline:      "batch",
	}
	for _, s := range loadgen.AllScenarios() {
		rows = append(rows, []string{
			s.String(), generation[s], core.ScenarioMetric(s), samples[s], core.ScenarioExample(s),
		})
	}
	header := []string{"SCENARIO", "QUERY GENERATION", "METRIC", "SAMPLES/QUERY", "EXAMPLES"}
	return "Table II — scenario descriptions and metrics\n" + table(header, rows), nil
}

// Table3 reports the per-task latency constraints.
func Table3(opts Options) (string, error) {
	rows := make([][]string, 0, 5)
	for _, spec := range core.Suite() {
		rows = append(rows, []string{
			string(spec.Task),
			spec.MultiStreamArrivalInterval.String(),
			spec.ServerLatencyBound.String(),
			fmt.Sprintf("%.0f%%", 100*spec.ServerLatencyPercentile),
		})
	}
	header := []string{"TASK", "MULTISTREAM ARRIVAL", "SERVER QOS", "SERVER PERCENTILE"}
	return "Table III — latency constraints\n" + table(header, rows), nil
}

// Table4 reports the statistically required query counts.
func Table4(opts Options) (string, error) {
	reqs, err := stats.TableIV()
	if err != nil {
		return "", err
	}
	rows := make([][]string, 0, len(reqs))
	for _, r := range reqs {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", 100*r.TailPercentile),
			fmt.Sprintf("%.0f%%", 100*r.Confidence),
			fmt.Sprintf("%.2f%%", 100*r.Margin),
			fmt.Sprintf("%d", r.Inferences),
			fmt.Sprintf("%d (= %d x 2^13)", r.Rounded, r.Rounded/stats.QueryBlock),
		})
	}
	header := []string{"TAIL PERCENTILE", "CONFIDENCE", "MARGIN", "INFERENCES", "ROUNDED"}
	return "Table IV — query requirements for statistical confidence\n" + table(header, rows), nil
}

// Table5 reports the per-task, per-scenario query requirements.
func Table5(opts Options) (string, error) {
	rows := make([][]string, 0, 5)
	for _, spec := range core.Suite() {
		rows = append(rows, []string{
			string(spec.Task),
			fmt.Sprintf("%d / 1", spec.SingleStreamQueries),
			fmt.Sprintf("%d / N", spec.MultiStreamQueries),
			fmt.Sprintf("%d / 1", spec.ServerQueries),
			fmt.Sprintf("1 / %d", spec.OfflineSamples),
		})
	}
	header := []string{"TASK", "SINGLE-STREAM", "MULTISTREAM", "SERVER", "OFFLINE"}
	return "Table V — number of queries / samples per query\n" + table(header, rows), nil
}

// Table6 reports the closed-division coverage matrix.
func Table6(opts Options) (string, error) {
	opts.normalize()
	corpus, err := evalcorpus.Generate(evalcorpus.Options{Seed: opts.Seed, SkipMetrics: true})
	if err != nil {
		return "", err
	}
	coverage := corpus.Coverage()
	rows := make([][]string, 0, len(coverage))
	totals := map[loadgen.Scenario]int{}
	for _, m := range model.AllNames() {
		row := coverage[string(m)]
		rows = append(rows, []string{
			string(m),
			fmt.Sprintf("%d", row[loadgen.SingleStream]),
			fmt.Sprintf("%d", row[loadgen.MultiStream]),
			fmt.Sprintf("%d", row[loadgen.Server]),
			fmt.Sprintf("%d", row[loadgen.Offline]),
		})
		for s, n := range row {
			totals[s] += n
		}
	}
	rows = append(rows, []string{
		"TOTAL",
		fmt.Sprintf("%d", totals[loadgen.SingleStream]),
		fmt.Sprintf("%d", totals[loadgen.MultiStream]),
		fmt.Sprintf("%d", totals[loadgen.Server]),
		fmt.Sprintf("%d", totals[loadgen.Offline]),
	})
	header := []string{"MODEL", "SINGLE-STREAM", "MULTISTREAM", "SERVER", "OFFLINE"}
	return "Table VI — coverage of models and scenarios (closed division)\n" + table(header, rows), nil
}

// Table7 reports the framework-versus-architecture matrix.
func Table7(opts Options) (string, error) {
	opts.normalize()
	corpus, err := evalcorpus.Generate(evalcorpus.Options{Seed: opts.Seed, SkipMetrics: true})
	if err != nil {
		return "", err
	}
	matrix := corpus.FrameworkMatrix()
	frameworks := make([]string, 0, len(matrix))
	for f := range matrix {
		frameworks = append(frameworks, f)
	}
	sort.Strings(frameworks)
	archs := []simhw.Architecture{simhw.ASIC, simhw.CPU, simhw.DSP, simhw.FPGA, simhw.GPU}
	rows := make([][]string, 0, len(frameworks))
	for _, f := range frameworks {
		row := []string{f}
		for _, a := range archs {
			mark := ""
			if matrix[f][a] {
				mark = "X"
			}
			row = append(row, mark)
		}
		rows = append(rows, row)
	}
	header := []string{"FRAMEWORK", "ASIC", "CPU", "DSP", "FPGA", "GPU"}
	return "Table VII — framework versus hardware architecture\n" + table(header, rows), nil
}

// Figure5 reports each model's share of the closed-division results.
func Figure5(opts Options) (string, error) {
	opts.normalize()
	corpus, err := evalcorpus.Generate(evalcorpus.Options{Seed: opts.Seed, SkipMetrics: true})
	if err != nil {
		return "", err
	}
	share := corpus.ModelShare()
	paper := map[string]float64{
		"resnet50-v1.5": 0.325, "mobilenet-v1": 0.223, "ssd-mobilenet-v1": 0.175,
		"ssd-resnet34": 0.163, "gnmt": 0.114,
	}
	rows := make([][]string, 0, len(share))
	for _, m := range model.AllNames() {
		rows = append(rows, []string{
			string(m),
			fmt.Sprintf("%.1f%%", 100*share[string(m)]),
			fmt.Sprintf("%.1f%%", 100*paper[string(m)]),
		})
	}
	header := []string{"MODEL", "SHARE (reproduced)", "SHARE (paper)"}
	return "Figure 5 — closed-division result share per model\n" + table(header, rows), nil
}

// Figure6 reports the server-to-offline throughput ratio per system and model.
func Figure6(opts Options) (string, error) {
	opts.normalize()
	series, err := evalcorpus.ServerToOfflineRatios(opts.Figure6Systems, evalcorpus.Options{
		Seed: opts.Seed, SearchQueries: opts.SearchQueries,
	})
	if err != nil {
		return "", err
	}
	header := []string{"SYSTEM"}
	for _, m := range model.AllNames() {
		header = append(header, string(m))
	}
	rows := make([][]string, 0, len(series))
	for _, s := range series {
		row := []string{s.Platform}
		for _, m := range model.AllNames() {
			row = append(row, fmt.Sprintf("%.2f", s.Ratios[string(m)]))
		}
		rows = append(rows, row)
	}
	summary := figure6Summary(series)
	return "Figure 6 — server-to-offline throughput ratio (1.0 = no degradation)\n" + table(header, rows) + summary, nil
}

// figure6Summary reproduces the Section VI-B observations about degradation
// ranges per model family.
func figure6Summary(series []evalcorpus.RatioSeries) string {
	degradation := func(m string) (min, max float64, n int) {
		min, max = 1, 0
		for _, s := range series {
			r, ok := s.Ratios[m]
			if !ok || r <= 0 {
				continue
			}
			d := 1 - r
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
			n++
		}
		if n == 0 {
			return 0, 0, 0
		}
		return min, max, n
	}
	var b strings.Builder
	for _, m := range []string{"gnmt", "resnet50-v1.5", "mobilenet-v1"} {
		lo, hi, n := degradation(m)
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: throughput reduction under the server constraint spans %.0f%%-%.0f%% across %d systems\n",
			m, 100*lo, 100*hi, n)
	}
	return b.String()
}

// Figure7 reports result counts per processor architecture.
func Figure7(opts Options) (string, error) {
	opts.normalize()
	corpus, err := evalcorpus.Generate(evalcorpus.Options{Seed: opts.Seed, SkipMetrics: true})
	if err != nil {
		return "", err
	}
	counts := corpus.ArchitectureCounts()
	rows := make([][]string, 0, len(counts))
	for _, a := range simhw.AllArchitectures() {
		rows = append(rows, []string{string(a), fmt.Sprintf("%d", counts[a])})
	}
	header := []string{"ARCHITECTURE", "RESULTS"}
	return "Figure 7 — closed-division results per processor architecture\n" + table(header, rows), nil
}

// Figure8 reports the relative performance span per model and scenario.
func Figure8(opts Options) (string, error) {
	opts.normalize()
	corpus, err := evalcorpus.Generate(evalcorpus.Options{Seed: opts.Seed, SearchQueries: opts.SearchQueries})
	if err != nil {
		return "", err
	}
	ranges := corpus.PerformanceRanges()
	rows := make([][]string, 0, len(ranges))
	maxSpread := 0.0
	for _, r := range ranges {
		if r.Spread > maxSpread {
			maxSpread = r.Spread
		}
		rows = append(rows, []string{
			r.Model, r.Scenario.String(), fmt.Sprintf("%d", r.Systems), fmt.Sprintf("%.0fx", r.Spread),
		})
	}
	header := []string{"MODEL", "SCENARIO", "SYSTEMS", "BEST/WORST SPREAD"}
	footer := fmt.Sprintf("largest spread across any model/scenario: %.0fx (paper reports up to ~10,000x across the full corpus)\n", maxSpread)
	return "Figure 8 — relative performance span per model and scenario\n" + table(header, rows) + footer, nil
}

// Audits runs the Section V-B validation suite against a compliant native
// submission system.
func Audits(opts Options) (string, error) {
	opts.normalize()
	assembly, err := harness.BuildNative(core.ImageClassificationLight, harness.BuildOptions{
		DatasetSamples: opts.DatasetSamples, Seed: opts.Seed,
	})
	if err != nil {
		return "", err
	}
	settings := harness.QuickSettings(assembly.Spec, loadgen.SingleStream, 16)
	settings.MinDuration = 50 * time.Millisecond
	suite := audit.Suite{SUT: assembly.SUT, QSL: assembly.QSL, Settings: settings}
	findings, err := suite.RunAll()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Section V-B — result-review audits against the reference submission system\n")
	for _, f := range findings {
		fmt.Fprintln(&b, f)
	}
	if audit.AllPassed(findings) {
		b.WriteString("all audits passed\n")
	} else {
		b.WriteString("AUDIT FAILURES DETECTED\n")
	}
	return b.String(), nil
}

// ModeledVsMeasured reproduces the Section VII-D analysis: SSD-ResNet-34
// requires ~175x more operations per image than SSD-MobileNet-v1, but
// measured throughput differs far less.
func ModeledVsMeasured(opts Options) (string, error) {
	opts.normalize()
	workloads := simhw.StandardWorkloads()
	heavy := workloads["ssd-resnet34"]
	light := workloads["ssd-mobilenet-v1"]
	opsRatio := float64(heavy.OpsPerSample) / float64(light.OpsPerSample)

	rows := make([][]string, 0, 8)
	var ratios []float64
	for _, p := range simhw.Catalog() {
		heavyTput, err := simhw.OfflineThroughput(p, heavy, 4096, opts.Seed)
		if err != nil {
			return "", err
		}
		lightTput, err := simhw.OfflineThroughput(p, light, 4096, opts.Seed)
		if err != nil {
			return "", err
		}
		if heavyTput <= 0 {
			continue
		}
		ratio := lightTput / heavyTput
		ratios = append(ratios, ratio)
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.1f", lightTput),
			fmt.Sprintf("%.1f", heavyTput),
			fmt.Sprintf("%.0fx", ratio),
		})
	}
	header := []string{"SYSTEM", "SSD-MOBILENET samples/s", "SSD-RESNET-34 samples/s", "MEASURED RATIO"}
	mean := 0.0
	for _, r := range ratios {
		mean += r
	}
	if len(ratios) > 0 {
		mean /= float64(len(ratios))
	}
	footer := fmt.Sprintf("operation-count ratio: %.0fx; mean measured throughput ratio: %.0fx — structure matters, not just ops (Section VII-D)\n",
		opsRatio, mean)
	return "Section VII-D — modeled (operation count) versus measured performance\n" + table(header, rows) + footer, nil
}
