package accuracy

import (
	"testing"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/metrics"
	"mlperf/internal/payload"
)

// streamAll feeds a log through a fresh StreamChecker and returns its report.
func streamAll(t *testing.T, ds dataset.Dataset, log []loadgen.AccuracyEntry, reference, target float64) Report {
	t.Helper()
	c, err := NewStreamChecker(ds, reference, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range log {
		c.Add(e)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStreamCheckerMatchesBatchCheck: streaming one entry at a time must
// reproduce the batch accuracy script exactly for every task kind.
func TestStreamCheckerMatchesBatchCheck(t *testing.T) {
	// Classification.
	imgDS, imgLog := classificationFixture(t)
	batch, err := Check(imgLog, imgDS, 0.8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	stream := streamAll(t, imgDS, imgLog, 0.8, 0.7)
	if stream != batch {
		t.Errorf("classification: stream report %+v != batch report %+v", stream, batch)
	}

	// Detection.
	detDS, err := dataset.NewSyntheticDetection(dataset.ImageConfig{
		Samples: 10, Classes: 3, Channels: 1, Height: 4, Width: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var detLog []loadgen.AccuracyEntry
	for i := 0; i < detDS.Size(); i++ {
		s, _ := detDS.Sample(i)
		boxes := make([]metrics.Box, len(s.Boxes))
		copy(boxes, s.Boxes)
		for j := range boxes {
			boxes[j].Score = 0.9
		}
		data := payload.AppendBoxes(nil, boxes)
		detLog = append(detLog, loadgen.AccuracyEntry{SampleIndex: i, Data: data})
	}
	detBatch, err := Check(detLog, detDS, 0.5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	detStream := streamAll(t, detDS, detLog, 0.5, 0.4)
	if detStream != detBatch {
		t.Errorf("detection: stream report %+v != batch report %+v", detStream, detBatch)
	}

	// Translation.
	textDS, err := dataset.NewSyntheticText(dataset.TextConfig{Samples: 12, Vocab: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var textLog []loadgen.AccuracyEntry
	for i := 0; i < textDS.Size(); i++ {
		s, _ := textDS.Sample(i)
		data := payload.AppendTokens(nil, s.RefTokens)
		textLog = append(textLog, loadgen.AccuracyEntry{SampleIndex: i, Data: data})
	}
	textBatch, err := Check(textLog, textDS, 24, 23)
	if err != nil {
		t.Fatal(err)
	}
	textStream := streamAll(t, textDS, textLog, 24, 23)
	if textStream != textBatch {
		t.Errorf("translation: stream report %+v != batch report %+v", textStream, textBatch)
	}
}

func TestStreamCheckerErrors(t *testing.T) {
	imgDS, imgLog := classificationFixture(t)

	// Empty stream.
	c, err := NewStreamChecker(imgDS, 0.8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(); err == nil {
		t.Error("empty stream: expected error")
	}

	// Corrupt payload surfaces at Report.
	c2, _ := NewStreamChecker(imgDS, 0.8, 0.7)
	c2.Add(loadgen.AccuracyEntry{SampleIndex: 0, Data: []byte("junk")})
	c2.Add(imgLog[0])
	if _, err := c2.Report(); err == nil {
		t.Error("corrupt payload: expected error from Report")
	}

	// Out-of-range sample index.
	c3, _ := NewStreamChecker(imgDS, 0.8, 0.7)
	c3.Add(loadgen.AccuracyEntry{SampleIndex: 999, Data: imgLog[0].Data})
	if _, err := c3.Report(); err == nil {
		t.Error("out-of-range sample: expected error from Report")
	}

	// Unsupported dataset type.
	if _, err := NewStreamChecker(nil, 0, 0); err == nil {
		t.Error("nil dataset: expected error")
	}
}

// TestBLEUAccumulatorMatchesCorpusBLEU cross-checks the incremental and batch
// BLEU forms on an imperfect corpus.
func TestBLEUAccumulatorMatchesCorpusBLEU(t *testing.T) {
	hyps := [][]int{{1, 2, 3, 4}, {5, 6}, {7, 8, 9}, {1, 1, 1, 1, 1}}
	refs := [][]int{{1, 2, 3, 5}, {5, 6}, {9, 8, 7}, {1, 2, 1, 2, 1, 2}}
	want, err := metrics.CorpusBLEU(hyps, refs)
	if err != nil {
		t.Fatal(err)
	}
	var acc metrics.BLEUAccumulator
	for i := range hyps {
		acc.Add(hyps[i], refs[i])
	}
	got, err := acc.Score()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || acc.Pairs() != len(hyps) {
		t.Errorf("accumulator BLEU = %v (%d pairs), CorpusBLEU = %v", got, acc.Pairs(), want)
	}
}
