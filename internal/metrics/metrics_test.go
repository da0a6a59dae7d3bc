package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTop1Accuracy(t *testing.T) {
	acc, err := Top1Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", acc)
	}
}

func TestTop1AccuracyErrors(t *testing.T) {
	if _, err := Top1Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch: expected error")
	}
	if _, err := Top1Accuracy(nil, nil); err == nil {
		t.Error("empty: expected error")
	}
}

func TestTopKAccuracy(t *testing.T) {
	acc, err := TopKAccuracy([][]int{{1, 2}, {3, 4}, {5, 6}}, []int{2, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-2.0/3.0) > 1e-12 {
		t.Errorf("topk accuracy = %v", acc)
	}
	if _, err := TopKAccuracy(nil, nil); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := TopKAccuracy([][]int{{1}}, []int{1, 2}); err == nil {
		t.Error("mismatch: expected error")
	}
}

func TestTop1AccuracyBoundsProperty(t *testing.T) {
	f := func(pred []uint8) bool {
		if len(pred) == 0 {
			return true
		}
		p := make([]int, len(pred))
		l := make([]int, len(pred))
		for i, v := range pred {
			p[i] = int(v % 4)
			l[i] = int((v / 4) % 4)
		}
		acc, err := Top1Accuracy(p, l)
		if err != nil {
			return false
		}
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIoU(t *testing.T) {
	a := Box{X1: 0, Y1: 0, X2: 1, Y2: 1}
	b := Box{X1: 0.5, Y1: 0, X2: 1.5, Y2: 1}
	if got := IoU(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("IoU(a,a) = %v", got)
	}
	if got := IoU(a, b); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("IoU half overlap = %v, want 1/3", got)
	}
	c := Box{X1: 2, Y1: 2, X2: 3, Y2: 3}
	if got := IoU(a, c); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
	degenerate := Box{X1: 1, Y1: 1, X2: 1, Y2: 1}
	if degenerate.Area() != 0 {
		t.Error("degenerate box area should be 0")
	}
}

func TestIoUSymmetricProperty(t *testing.T) {
	f := func(x1, y1, w1, h1, x2, y2, w2, h2 uint8) bool {
		a := Box{X1: float64(x1), Y1: float64(y1), X2: float64(x1) + float64(w1%50) + 1, Y2: float64(y1) + float64(h1%50) + 1}
		b := Box{X1: float64(x2), Y1: float64(y2), X2: float64(x2) + float64(w2%50) + 1, Y2: float64(y2) + float64(h2%50) + 1}
		u1, u2 := IoU(a, b), IoU(b, a)
		return math.Abs(u1-u2) < 1e-12 && u1 >= 0 && u1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMeanAveragePrecisionPerfect(t *testing.T) {
	gt := []GroundTruth{
		{SampleIndex: 0, Boxes: []Box{{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1}}},
		{SampleIndex: 1, Boxes: []Box{{X1: 0.5, Y1: 0.5, X2: 0.9, Y2: 0.9, Class: 2}}},
	}
	det := []Detection{
		{SampleIndex: 0, Boxes: []Box{{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1, Score: 0.9}}},
		{SampleIndex: 1, Boxes: []Box{{X1: 0.5, Y1: 0.5, X2: 0.9, Y2: 0.9, Class: 2, Score: 0.8}}},
	}
	m, err := MeanAveragePrecision(det, gt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 1e-9 {
		t.Errorf("perfect detections mAP = %v, want 1", m)
	}
}

func TestMeanAveragePrecisionMisses(t *testing.T) {
	gt := []GroundTruth{
		{SampleIndex: 0, Boxes: []Box{
			{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1},
			{X1: 0.6, Y1: 0.6, X2: 0.9, Y2: 0.9, Class: 1},
		}},
	}
	// Only one of two boxes found -> AP = 0.5 for the class.
	det := []Detection{
		{SampleIndex: 0, Boxes: []Box{{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1, Score: 0.9}}},
	}
	m, err := MeanAveragePrecision(det, gt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.5) > 1e-9 {
		t.Errorf("mAP = %v, want 0.5", m)
	}
}

func TestMeanAveragePrecisionNoDetections(t *testing.T) {
	gt := []GroundTruth{{SampleIndex: 0, Boxes: []Box{{X1: 0, Y1: 0, X2: 1, Y2: 1, Class: 1}}}}
	m, err := MeanAveragePrecision(nil, gt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m != 0 {
		t.Errorf("mAP with no detections = %v, want 0", m)
	}
}

func TestMeanAveragePrecisionDuplicatesPenalized(t *testing.T) {
	gt := []GroundTruth{{SampleIndex: 0, Boxes: []Box{{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1}}}}
	// Two identical detections of the same GT box: the second is a false
	// positive, so AP stays 1.0 only for the interpolated part up to recall 1.
	det := []Detection{{SampleIndex: 0, Boxes: []Box{
		{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1, Score: 0.9},
		{X1: 0.1, Y1: 0.1, X2: 0.4, Y2: 0.4, Class: 1, Score: 0.8},
	}}}
	m, err := MeanAveragePrecision(det, gt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 1e-9 {
		t.Errorf("duplicate-match mAP = %v, want 1 (duplicate counted after full recall)", m)
	}
}

// TestMeanAveragePrecisionIsBitDeterministic: the mean over classes is a
// float sum, so it must visit classes in a fixed order. Class k has 2k+3
// ground-truth boxes and one correct detection, so its AP is 1/(2k+3) and
// the sum of seven such terms depends on the order in its last bits.
func TestMeanAveragePrecisionIsBitDeterministic(t *testing.T) {
	box := func(class int) Box { return Box{X1: 0.1, Y1: 0.1, X2: 0.5, Y2: 0.5, Class: class, Score: 0.9} }
	var det []Detection
	var gt []GroundTruth
	sample := 0
	for class := 0; class < 7; class++ {
		for n := 0; n < 2*class+3; n++ {
			gt = append(gt, GroundTruth{SampleIndex: sample, Boxes: []Box{box(class)}})
			if n == 0 {
				det = append(det, Detection{SampleIndex: sample, Boxes: []Box{box(class)}})
			}
			sample++
		}
	}
	first, err := MeanAveragePrecision(det, gt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m, err := MeanAveragePrecision(det, gt, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(m) != math.Float64bits(first) {
			t.Fatalf("call %d: mAP %v (0x%x) differs from the first call's %v (0x%x)", i, m, math.Float64bits(m), first, math.Float64bits(first))
		}
	}
}

func TestMeanAveragePrecisionErrors(t *testing.T) {
	if _, err := MeanAveragePrecision(nil, nil, 0.5); err == nil {
		t.Error("no ground truth: expected error")
	}
	gt := []GroundTruth{{SampleIndex: 0, Boxes: []Box{{X1: 0, Y1: 0, X2: 1, Y2: 1, Class: 1}}}}
	if _, err := MeanAveragePrecision(nil, gt, 0); err == nil {
		t.Error("bad threshold: expected error")
	}
	empty := []GroundTruth{{SampleIndex: 0}}
	if _, err := MeanAveragePrecision(nil, empty, 0.5); err == nil {
		t.Error("gt without boxes: expected error")
	}
}

func TestCorpusBLEUPerfectMatch(t *testing.T) {
	refs := [][]int{{1, 2, 3, 4, 5}, {6, 7, 8, 9}}
	score, err := CorpusBLEU(refs, refs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score-100) > 1e-9 {
		t.Errorf("perfect BLEU = %v, want 100", score)
	}
}

func TestCorpusBLEUNoOverlap(t *testing.T) {
	hyp := [][]int{{1, 2, 3, 4}}
	ref := [][]int{{5, 6, 7, 8}}
	score, err := CorpusBLEU(hyp, ref)
	if err != nil {
		t.Fatal(err)
	}
	if score > 5 {
		t.Errorf("disjoint BLEU = %v, want near 0", score)
	}
}

func TestCorpusBLEUPartial(t *testing.T) {
	hyp := [][]int{{1, 2, 3, 9, 10, 11, 12}}
	ref := [][]int{{1, 2, 3, 4, 5, 6, 7}}
	score, err := CorpusBLEU(hyp, ref)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 || score >= 100 {
		t.Errorf("partial BLEU = %v, want strictly between 0 and 100", score)
	}
}

func TestCorpusBLEUBrevityPenalty(t *testing.T) {
	// A hypothesis that is a strict prefix of the reference has perfect
	// precision but must be penalized for brevity.
	full := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	short := [][]int{{1, 2, 3, 4, 5}}
	fullScore, err := CorpusBLEU(full, full)
	if err != nil {
		t.Fatal(err)
	}
	shortScore, err := CorpusBLEU(short, full)
	if err != nil {
		t.Fatal(err)
	}
	if shortScore >= fullScore {
		t.Errorf("brevity penalty not applied: short %v >= full %v", shortScore, fullScore)
	}
}

func TestCorpusBLEUErrors(t *testing.T) {
	if _, err := CorpusBLEU(nil, nil); err == nil {
		t.Error("empty corpus: expected error")
	}
	if _, err := CorpusBLEU([][]int{{1}}, nil); err == nil {
		t.Error("length mismatch: expected error")
	}
}

func TestCorpusBLEUEmptyHypothesis(t *testing.T) {
	score, err := CorpusBLEU([][]int{{}}, [][]int{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Errorf("empty hypothesis BLEU = %v, want 0", score)
	}
}

func TestCorpusBLEUBoundsProperty(t *testing.T) {
	f := func(h, r []uint8) bool {
		if len(h) == 0 || len(r) == 0 {
			return true
		}
		hyp := make([]int, len(h))
		ref := make([]int, len(r))
		for i, v := range h {
			hyp[i] = int(v % 16)
		}
		for i, v := range r {
			ref[i] = int(v % 16)
		}
		score, err := CorpusBLEU([][]int{hyp}, [][]int{ref})
		if err != nil {
			return false
		}
		return score >= 0 && score <= 100+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
