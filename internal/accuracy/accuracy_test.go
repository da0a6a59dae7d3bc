package accuracy

import (
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

func TestCheckClassification(t *testing.T) {
	ds, log := classificationFixture(t)
	acc, err := CheckClassification(log, ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", acc)
	}
	if _, err := CheckClassification(nil, ds); err == nil {
		t.Error("empty log: expected error")
	}
	bad := []loadgen.AccuracyEntry{{SampleIndex: 0, Data: []byte("junk")}}
	if _, err := CheckClassification(bad, ds); err == nil {
		t.Error("corrupt payload: expected error")
	}
	outOfRange := []loadgen.AccuracyEntry{{SampleIndex: 999, Data: log[0].Data}}
	if _, err := CheckClassification(outOfRange, ds); err == nil {
		t.Error("out-of-range sample: expected error")
	}
}

func TestCheckDetection(t *testing.T) {
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
	mAP, err := CheckDetection(log, ds, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if mAP < 0.99 {
		t.Errorf("perfect detections mAP = %v", mAP)
	}
	if _, err := CheckDetection(nil, ds, 0.5); err == nil {
		t.Error("empty log: expected error")
	}
}

func TestCheckTranslation(t *testing.T) {
	ds, err := dataset.NewSyntheticText(dataset.TextConfig{Samples: 12, Vocab: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var log []loadgen.AccuracyEntry
	for i := 0; i < ds.Size(); i++ {
		s, _ := ds.Sample(i)
		data := payload.AppendTokens(nil, s.RefTokens)
		log = append(log, loadgen.AccuracyEntry{SampleIndex: i, Data: data})
	}
	bleu, err := CheckTranslation(log, ds)
	if err != nil {
		t.Fatal(err)
	}
	if bleu < 99 {
		t.Errorf("perfect hypotheses BLEU = %v", bleu)
	}
	if _, err := CheckTranslation(nil, ds); err == nil {
		t.Error("empty log: expected error")
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
