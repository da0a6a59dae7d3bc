// Package accuracy implements the benchmark's accuracy script (Figure 3,
// step 7): it decodes the responses the LoadGen logged during an
// accuracy-mode run, scores them against the data set's ground truth with the
// task's quality metric, and decides whether the model meets its quality
// target. It also provides the log-consistency check used by the
// accuracy-verification audit (Section V-B).
package accuracy

import (
	"bytes"
	"fmt"
	"sync"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/metrics"
	"mlperf/internal/payload"
)

// Report is the outcome of scoring one accuracy-mode run.
type Report struct {
	Metric    string  // "top1", "mAP" or "BLEU"
	Value     float64 // measured quality
	Reference float64 // FP32 reference quality the target derives from
	Target    float64 // minimum acceptable quality
	Samples   int     // scored samples
	Pass      bool
}

// String formats the report the way result summaries print it.
func (r Report) String() string {
	status := "FAILED"
	if r.Pass {
		status = "PASSED"
	}
	return fmt.Sprintf("%s=%.4f (target %.4f, reference %.4f, %d samples): %s",
		r.Metric, r.Value, r.Target, r.Reference, r.Samples, status)
}

// Check scores an accuracy log against the appropriate metric for the data
// set's kind and compares the result to target (derived from the reference
// quality). It is the batch form of StreamChecker — one implementation of
// the scoring rules serves both the in-memory log and the streaming path.
func Check(log []loadgen.AccuracyEntry, ds dataset.Dataset, reference, target float64) (Report, error) {
	c, err := NewStreamChecker(ds, reference, target)
	if err != nil {
		return Report{}, err
	}
	for _, entry := range log {
		c.Add(entry)
	}
	return c.Report()
}

// StreamChecker scores an accuracy-mode run incrementally: each response is
// decoded and folded into the metric's sufficient statistics the moment the
// LoadGen logs it, so a full-dataset sweep never has to hold the raw response
// log in memory. Wire Add as the run's loadgen.TestSettings.AccuracySink and
// call Report after the run completes.
//
// Classification keeps two counters, translation keeps corpus BLEU n-gram
// statistics (metrics.BLEUAccumulator), and detection — whose mAP needs a
// global score ranking — keeps only the decoded boxes rather than the raw
// payloads.
type StreamChecker struct {
	ds        dataset.Dataset
	reference float64
	target    float64

	mu       sync.Mutex
	samples  int
	firstErr error

	// Classification.
	correct int
	// Detection.
	dets   []metrics.Detection
	truths []metrics.GroundTruth
	// Translation.
	bleu metrics.BLEUAccumulator
}

// NewStreamChecker returns a checker for the data set's task kind. reference
// and target mirror accuracy.Check's parameters.
func NewStreamChecker(ds dataset.Dataset, reference, target float64) (*StreamChecker, error) {
	switch ds.(type) {
	case *dataset.SyntheticImages, *dataset.SyntheticDetection, *dataset.SyntheticText:
		return &StreamChecker{ds: ds, reference: reference, target: target}, nil
	default:
		return nil, fmt.Errorf("accuracy: unsupported data set type %T", ds)
	}
}

// Add decodes and scores one logged response. It is safe for concurrent use;
// entry.Data is not retained past the call. Decode failures are recorded and
// surfaced by Report.
func (c *StreamChecker) Add(entry loadgen.AccuracyEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.add(entry); err != nil && c.firstErr == nil {
		c.firstErr = fmt.Errorf("accuracy: sample %d: %w", entry.SampleIndex, err)
	}
}

func (c *StreamChecker) add(entry loadgen.AccuracyEntry) error {
	switch d := c.ds.(type) {
	case *dataset.SyntheticImages:
		sample, err := d.Sample(entry.SampleIndex)
		if err != nil {
			return err
		}
		class, err := payload.DecodeClass(entry.Data)
		if err != nil {
			return err
		}
		if class == sample.Label {
			c.correct++
		}
	case *dataset.SyntheticDetection:
		sample, err := d.Sample(entry.SampleIndex)
		if err != nil {
			return err
		}
		boxes, err := payload.DecodeBoxes(entry.Data)
		if err != nil {
			return err
		}
		c.dets = append(c.dets, metrics.Detection{SampleIndex: entry.SampleIndex, Boxes: boxes})
		c.truths = append(c.truths, metrics.GroundTruth{SampleIndex: entry.SampleIndex, Boxes: sample.Boxes})
	case *dataset.SyntheticText:
		sample, err := d.Sample(entry.SampleIndex)
		if err != nil {
			return err
		}
		tokens, err := payload.DecodeTokens(entry.Data)
		if err != nil {
			return err
		}
		c.bleu.Add(tokens, sample.RefTokens)
	}
	c.samples++
	return nil
}

// Report computes the final quality report over everything streamed so far.
func (c *StreamChecker) Report() (Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstErr != nil {
		return Report{}, c.firstErr
	}
	if c.samples == 0 {
		return Report{}, fmt.Errorf("accuracy: empty accuracy log")
	}
	var (
		value  float64
		metric string
		err    error
	)
	switch c.ds.(type) {
	case *dataset.SyntheticImages:
		metric = "top1"
		value = float64(c.correct) / float64(c.samples)
	case *dataset.SyntheticDetection:
		metric = "mAP"
		value, err = metrics.MeanAveragePrecision(c.dets, c.truths, 0.5)
	case *dataset.SyntheticText:
		metric = "BLEU"
		value, err = c.bleu.Score()
	}
	if err != nil {
		return Report{}, err
	}
	return Report{
		Metric:    metric,
		Value:     value,
		Reference: c.reference,
		Target:    c.target,
		Samples:   c.samples,
		Pass:      value >= c.target,
	}, nil
}

// VerifyConsistency implements the accuracy-verification audit: responses
// sampled during a performance run must match the responses recorded for the
// same samples during the accuracy run. It returns the number of compared
// entries and an error describing the first mismatch.
func VerifyConsistency(performanceLog, accuracyLog []loadgen.AccuracyEntry) (int, error) {
	if len(accuracyLog) == 0 {
		return 0, fmt.Errorf("accuracy: accuracy-mode log is empty")
	}
	reference := make(map[int][]byte, len(accuracyLog))
	for _, entry := range accuracyLog {
		reference[entry.SampleIndex] = entry.Data
	}
	compared := 0
	for _, entry := range performanceLog {
		want, ok := reference[entry.SampleIndex]
		if !ok {
			return compared, fmt.Errorf("accuracy: sample %d logged in performance mode but absent from the accuracy run", entry.SampleIndex)
		}
		if !bytes.Equal(entry.Data, want) {
			return compared, fmt.Errorf("accuracy: sample %d response differs between performance and accuracy runs", entry.SampleIndex)
		}
		compared++
	}
	return compared, nil
}
