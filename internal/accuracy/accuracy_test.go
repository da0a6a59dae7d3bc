package accuracy

import (
	"math"
	"strings"
	"testing"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/metrics"
	"mlperf/internal/payload"
)

func classificationFixture(t *testing.T) (*dataset.SyntheticImages, []loadgen.AccuracyEntry) {
	t.Helper()
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Samples: 20, Classes: 5, Channels: 1, Height: 4, Width: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Predictions match ground truth for the first 15 samples (75% accuracy).
	var log []loadgen.AccuracyEntry
	for i := 0; i < ds.Size(); i++ {
		s, _ := ds.Sample(i)
		pred := s.Label
		if i >= 15 {
			pred = (s.Label + 1) % 5
		}
		data := payload.AppendClass(nil, pred)
		log = append(log, loadgen.AccuracyEntry{QueryID: uint64(i), SampleIndex: i, Data: data})
	}
	return ds, log
}

func detectionFixture(t *testing.T) (*dataset.SyntheticDetection, []loadgen.AccuracyEntry) {
	t.Helper()
	ds, err := dataset.NewSyntheticDetection(dataset.ImageConfig{
		Samples: 10, Classes: 3, Channels: 1, Height: 4, Width: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect detections: echo the ground truth with scores.
	var log []loadgen.AccuracyEntry
	for i := 0; i < ds.Size(); i++ {
		s, _ := ds.Sample(i)
		boxes := make([]metrics.Box, len(s.Boxes))
		copy(boxes, s.Boxes)
		for j := range boxes {
			boxes[j].Score = 0.9
		}
		data := payload.AppendBoxes(nil, boxes)
		log = append(log, loadgen.AccuracyEntry{SampleIndex: i, Data: data})
	}
	return ds, log
}

func translationFixture(t *testing.T) (*dataset.SyntheticText, []loadgen.AccuracyEntry) {
	t.Helper()
	ds, err := dataset.NewSyntheticText(dataset.TextConfig{Samples: 12, Vocab: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect hypotheses: echo the reference translations.
	var log []loadgen.AccuracyEntry
	for i := 0; i < ds.Size(); i++ {
		s, _ := ds.Sample(i)
		data := payload.AppendTokens(nil, s.RefTokens)
		log = append(log, loadgen.AccuracyEntry{SampleIndex: i, Data: data})
	}
	return ds, log
}

// TestCheck scores one log per task kind with its metric, and refuses an
// empty log, an undecodable payload and an out-of-range sample index.
func TestCheck(t *testing.T) {
	images, classLog := classificationFixture(t)
	boxes, detLog := detectionFixture(t)
	text, textLog := translationFixture(t)
	cases := []struct {
		name     string
		ds       dataset.Dataset
		log      []loadgen.AccuracyEntry
		metric   string
		min, max float64
	}{
		{"classification", images, classLog, "top1", 0.75, 0.75},
		{"detection", boxes, detLog, "mAP", 0.99, math.Inf(1)},
		{"translation", text, textLog, "BLEU", 99, math.Inf(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			report, err := Check(c.log, c.ds, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if report.Metric != c.metric || report.Value < c.min || report.Value > c.max || report.Samples != len(c.log) {
				t.Errorf("report = %+v, want %s in [%v, %v] over %d samples", report, c.metric, c.min, c.max, len(c.log))
			}
			refused := []struct {
				why string
				log []loadgen.AccuracyEntry
			}{
				{"empty log", nil},
				{"undecodable payload", []loadgen.AccuracyEntry{{SampleIndex: 0, Data: []byte("junk")}}},
				{"out-of-range sample", []loadgen.AccuracyEntry{{SampleIndex: 999, Data: c.log[0].Data}}},
			}
			for _, r := range refused {
				if _, err := Check(r.log, c.ds, 0, 0); err == nil {
					t.Errorf("%s: expected error", r.why)
				}
			}
		})
	}
}

func TestCheckDispatchAndReport(t *testing.T) {
	ds, log := classificationFixture(t)
	report, err := Check(log, ds, 0.75, 0.74)
	if err != nil {
		t.Fatal(err)
	}
	if report.Metric != "top1" || !report.Pass {
		t.Errorf("report = %+v", report)
	}
	if report.Samples != 20 {
		t.Errorf("samples = %d", report.Samples)
	}
	if !strings.Contains(report.String(), "PASSED") {
		t.Errorf("String() = %q", report.String())
	}
	failing, err := Check(log, ds, 0.75, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if failing.Pass {
		t.Error("target above measured value must fail")
	}
	if !strings.Contains(failing.String(), "FAILED") {
		t.Errorf("String() = %q", failing.String())
	}
}

type unknownDataset struct{ dataset.Dataset }

func TestCheckUnsupportedDataset(t *testing.T) {
	_, log := classificationFixture(t)
	if _, err := Check(log, unknownDataset{}, 1, 1); err == nil {
		t.Error("unsupported dataset type: expected error")
	}
}

func TestVerifyConsistency(t *testing.T) {
	_, accLog := classificationFixture(t)
	// A performance log that sampled a subset of the same responses.
	perfLog := []loadgen.AccuracyEntry{accLog[0], accLog[5], accLog[19]}
	n, err := VerifyConsistency(perfLog, accLog)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("compared %d entries, want 3", n)
	}
	// Mismatching data must be flagged.
	tampered := payload.AppendClass(nil, 4)
	bad := []loadgen.AccuracyEntry{{SampleIndex: accLog[0].SampleIndex, Data: tampered}}
	if _, err := VerifyConsistency(bad, accLog); err == nil {
		t.Error("tampered response: expected error")
	}
	// A sample missing from the accuracy log must be flagged.
	missing := []loadgen.AccuracyEntry{{SampleIndex: 9999, Data: accLog[0].Data}}
	if _, err := VerifyConsistency(missing, accLog); err == nil {
		t.Error("missing reference entry: expected error")
	}
	if _, err := VerifyConsistency(perfLog, nil); err == nil {
		t.Error("empty accuracy log: expected error")
	}
	// An empty performance log trivially passes (nothing was sampled).
	if n, err := VerifyConsistency(nil, accLog); err != nil || n != 0 {
		t.Errorf("empty performance log: n=%d err=%v", n, err)
	}
}
