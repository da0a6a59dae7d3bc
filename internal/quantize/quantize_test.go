package quantize

import (
	"math"
	"testing"
	"testing/quick"

	"mlperf/internal/dataset"
	"mlperf/internal/model"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

func randomTensor(n int, seed uint64) *tensor.Tensor {
	t := tensor.MustNew(n)
	rng := stats.NewRNG(seed)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestApprovedFormats(t *testing.T) {
	formats := ApprovedFormats()
	if len(formats) != 9 {
		t.Fatalf("approved list has %d formats, want 9 (Section IV-A)", len(formats))
	}
	for _, f := range formats {
		if !Valid(f) {
			t.Errorf("approved format %q not Valid", f)
		}
	}
	if Valid(Format("int2")) {
		t.Error("int2 should not be valid")
	}
}

func TestFP32IsIdentity(t *testing.T) {
	x := randomTensor(256, 1)
	orig := x.Clone()
	s, err := Tensor(x, FP32)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equalish(x, orig, 0) {
		t.Error("FP32 quantization changed values")
	}
	if s.MeanAbsError != 0 {
		t.Errorf("FP32 error = %v", s.MeanAbsError)
	}
}

func TestInt8RoundTripError(t *testing.T) {
	x := randomTensor(4096, 2)
	orig := x.Clone()
	s, err := Tensor(x, INT8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale <= 0 {
		t.Errorf("scale = %v", s.Scale)
	}
	if s.MeanAbsError <= 0 {
		t.Error("INT8 should introduce nonzero error on random data")
	}
	// Error per element is bounded by half a quantization step.
	maxErr := 0.0
	for i := range x.Data() {
		e := math.Abs(float64(x.Data()[i]) - float64(orig.Data()[i]))
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > s.Scale/2+1e-9 {
		t.Errorf("max error %v exceeds half step %v", maxErr, s.Scale/2)
	}
}

func TestLowerPrecisionHasLargerError(t *testing.T) {
	base := randomTensor(4096, 3)
	errFor := func(f Format) float64 {
		x := base.Clone()
		s, err := Tensor(x, f)
		if err != nil {
			t.Fatal(err)
		}
		return s.MeanAbsError
	}
	int4 := errFor(INT4)
	int8 := errFor(INT8)
	int16 := errFor(INT16)
	if !(int4 > int8 && int8 > int16) {
		t.Errorf("error ordering violated: int4=%v int8=%v int16=%v", int4, int8, int16)
	}
	fp16 := errFor(FP16)
	bf16 := errFor(BFloat16)
	fp11 := errFor(FP11)
	if !(fp11 >= bf16 && bf16 >= fp16) {
		t.Errorf("float error ordering violated: fp11=%v bf16=%v fp16=%v", fp11, bf16, fp16)
	}
}

func TestTensorInvalidFormat(t *testing.T) {
	if _, err := Tensor(tensor.MustNew(4), Format("fp8")); err == nil {
		t.Error("unapproved format: expected error")
	}
}

func TestZeroTensorQuantizes(t *testing.T) {
	x := tensor.MustNew(16)
	s, err := Tensor(x, INT8)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanAbsError != 0 {
		t.Errorf("all-zero tensor error = %v", s.MeanAbsError)
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Error("all-zero tensor changed")
		}
	}
}

func TestModelQuantization(t *testing.T) {
	m, err := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	statsList, err := Model(m.Weights(), INT8)
	if err != nil {
		t.Fatal(err)
	}
	if len(statsList) != len(m.Weights()) {
		t.Errorf("stats for %d tensors, want %d", len(statsList), len(m.Weights()))
	}
	// The quantized model must still run.
	img := tensor.MustNew(3, 16, 16)
	img.Fill(0.2)
	if _, err := m.Predict([]*dataset.Sample{{Image: img}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelQuantizationErrors(t *testing.T) {
	if _, err := Model(nil, INT8); err == nil {
		t.Error("no weights: expected error")
	}
	if _, err := Model([]*tensor.Tensor{nil}, INT8); err == nil {
		t.Error("nil weight: expected error")
	}
}

func TestQuantizationPerturbsModelOutputs(t *testing.T) {
	// INT4 weight quantization must perturb the model's outputs visibly more
	// than INT16 — this is the accuracy-versus-format behaviour Section III-B
	// is built around. A model's outputs are its predictions
	// (Engine.Predict); the detector's are continuous, so the perturbation is
	// measured on the score of each image's strongest detection.
	build := func() model.Model {
		m, err := model.New(model.SSDMobileNet, model.Config{Classes: 5, ImageSize: 16, Seed: 21, ScoreThreshold: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := stats.NewRNG(77)
	images := make([]*dataset.Sample, 10)
	for i := range images {
		img := tensor.MustNew(3, 16, 16)
		for j := range img.Data() {
			img.Data()[j] = float32(rng.NormFloat64())
		}
		images[i] = &dataset.Sample{Index: i, Image: img}
	}
	topScores := func(m model.Model) []float64 {
		outs, err := m.Predict(images, nil)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, len(outs))
		for i, out := range outs {
			if len(out.Boxes) == 0 {
				t.Fatalf("image %d: no detection above the 0.01 threshold", i)
			}
			scores[i] = out.Boxes[0].Score // boxes come sorted by score
		}
		return scores
	}
	reference := topScores(build())

	deviation := func(f Format) float64 {
		m := build()
		if _, err := Model(m.Weights(), f); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, score := range topScores(m) {
			sum += math.Abs(score - reference[i])
		}
		return sum / float64(len(reference))
	}
	dInt4 := deviation(INT4)
	dInt16 := deviation(INT16)
	if dInt4 <= 0 {
		t.Error("INT4 quantization left the detections unchanged; expected visible impact")
	}
	if dInt16 >= dInt4 {
		t.Errorf("INT16 deviation (%v) not smaller than INT4 (%v)", dInt16, dInt4)
	}
}

func TestCalibrator(t *testing.T) {
	c := NewCalibrator()
	if _, err := c.Scale("act0"); err == nil {
		t.Error("scale before observation: expected error")
	}
	a, _ := tensor.FromSlice([]float32{-1, 2, 0.5}, 3)
	b, _ := tensor.FromSlice([]float32{-3, 1}, 2)
	if err := c.Observe("act0", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe("act0", b); err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := c.Range("act0")
	if !ok || lo != -3 || hi != 2 {
		t.Errorf("range = (%v, %v, %v)", lo, hi, ok)
	}
	s, err := c.Scale("act0")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-3.0/127) > 1e-12 {
		t.Errorf("scale = %v, want 3/127", s)
	}
	if c.Observations() != 2 {
		t.Errorf("observations = %d", c.Observations())
	}
	if err := c.Observe("bad", nil); err == nil {
		t.Error("nil tensor: expected error")
	}
}

func TestCalibratorZeroActivations(t *testing.T) {
	c := NewCalibrator()
	z := tensor.MustNew(4)
	if err := c.Observe("zero", z); err != nil {
		t.Fatal(err)
	}
	s, err := c.Scale("zero")
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Errorf("zero-activation scale = %v, must be positive", s)
	}
}

func TestQuantizePreservesSignProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 || len(vals) > 512 {
			return true
		}
		for _, v := range vals {
			if v != v || math.IsInf(float64(v), 0) {
				return true
			}
		}
		x, err := tensor.FromSlice(append([]float32(nil), vals...), len(vals))
		if err != nil {
			return false
		}
		s, err := Tensor(x, INT8)
		if err != nil {
			return false
		}
		for i, v := range x.Data() {
			orig := vals[i]
			// Quantized values never flip sign by more than one step.
			if float64(orig) > s.Scale && v < 0 {
				return false
			}
			if float64(orig) < -s.Scale && v > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
