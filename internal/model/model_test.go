package model

import (
	"testing"

	"mlperf/internal/dataset"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// predictOne runs the engine on a single image.
func predictOne(e Engine, img *tensor.Tensor) (Output, error) {
	outs, err := e.Predict([]*dataset.Sample{{Image: img}}, nil)
	if err != nil {
		return Output{}, err
	}
	return outs[0], nil
}

func TestDescribeAllModels(t *testing.T) {
	for _, n := range AllNames() {
		info, err := Describe(n)
		if err != nil {
			t.Fatalf("Describe(%s): %v", n, err)
		}
		if info.PaperName == "" || info.QualityMetric == "" {
			t.Errorf("%s: incomplete metadata %+v", n, info)
		}
		if info.TargetRatio <= 0 || info.TargetRatio > 1 {
			t.Errorf("%s: target ratio %v", n, info.TargetRatio)
		}
	}
	if _, err := Describe("bert"); err == nil {
		t.Error("unknown model: expected error")
	}
}

func TestDescribeTableIQualityTargets(t *testing.T) {
	// Table I: ResNet-50 must reach 99% of 76.456%, MobileNet 98% of 71.676%.
	resnet, _ := Describe(ResNet50)
	if got := resnet.QualityTarget(resnet.PaperReferenceQuality); got < 0.756 || got > 0.758 {
		t.Errorf("ResNet-50 quality target = %v, want ~0.757", got)
	}
	mobilenet, _ := Describe(MobileNetV1)
	if mobilenet.TargetRatio != 0.98 {
		t.Errorf("MobileNet target ratio = %v, want 0.98 (Section III-B)", mobilenet.TargetRatio)
	}
	gnmt, _ := Describe(GNMT)
	if gnmt.PaperReferenceQuality != 23.9 {
		t.Errorf("GNMT reference BLEU = %v", gnmt.PaperReferenceQuality)
	}
}

func classifierCfg() ClassifierConfig {
	return ClassifierConfig{Classes: 10, ImageSize: 16, Seed: 7}
}

func TestResNet50Mini(t *testing.T) {
	m, err := NewResNet50Mini(classifierCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Info().Params <= 0 || m.Info().OpsPerInput <= 0 {
		t.Error("missing computed metadata")
	}
	img := tensor.MustNew(3, 16, 16)
	img.Fill(0.1)
	out, err := predictOne(m, img)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != dataset.KindImageClassification || out.Class < 0 || out.Class >= 10 {
		t.Errorf("output %+v: class out of range", out)
	}
	if len(m.Weights()) == 0 {
		t.Error("no weights exposed")
	}
	if _, err := predictOne(m, tensor.MustNew(3, 16)); err == nil {
		t.Error("bad input rank: expected error")
	}
}

func TestMobileNetV1Mini(t *testing.T) {
	m, err := NewMobileNetV1Mini(classifierCfg())
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.MustNew(3, 16, 16)
	img.Fill(-0.2)
	if _, err := predictOne(m, img); err != nil {
		t.Fatal(err)
	}
	shape := m.InputShape()
	if shape[0] != 3 || shape[1] != 16 {
		t.Errorf("input shape = %v", shape)
	}
}

func TestHeavyVsLightComputeOrdering(t *testing.T) {
	// The paper's heavy/light pairing must hold for the miniatures too:
	// ResNet-50 mini must cost several times more ops and params than
	// MobileNet mini, and SSD-ResNet more than SSD-MobileNet.
	resnet, err := NewResNet50Mini(classifierCfg())
	if err != nil {
		t.Fatal(err)
	}
	mobilenet, err := NewMobileNetV1Mini(classifierCfg())
	if err != nil {
		t.Fatal(err)
	}
	if resnet.Info().OpsPerInput < 3*mobilenet.Info().OpsPerInput {
		t.Errorf("ResNet ops %d not sufficiently heavier than MobileNet ops %d",
			resnet.Info().OpsPerInput, mobilenet.Info().OpsPerInput)
	}
	if resnet.Info().Params < 2*mobilenet.Info().Params {
		t.Errorf("ResNet params %d not sufficiently heavier than MobileNet params %d",
			resnet.Info().Params, mobilenet.Info().Params)
	}

	ssdRes, err := NewSSDResNet34Mini(DetectorConfig{Classes: 5, ImageSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ssdMob, err := NewSSDMobileNetMini(DetectorConfig{Classes: 5, ImageSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ssdRes.Info().OpsPerInput <= ssdMob.Info().OpsPerInput {
		t.Errorf("SSD-ResNet ops %d not heavier than SSD-MobileNet ops %d",
			ssdRes.Info().OpsPerInput, ssdMob.Info().OpsPerInput)
	}
}

func TestClassifierConfigErrors(t *testing.T) {
	if _, err := NewResNet50Mini(ClassifierConfig{Classes: 1}); err == nil {
		t.Error("1 class: expected error")
	}
	if _, err := NewMobileNetV1Mini(ClassifierConfig{Classes: 10, ImageSize: 4}); err == nil {
		t.Error("tiny image: expected error")
	}
}

func TestClassifierDeterminism(t *testing.T) {
	a, _ := NewResNet50Mini(classifierCfg())
	b, _ := NewResNet50Mini(classifierCfg())
	img := tensor.MustNew(3, 16, 16)
	rng := stats.NewRNG(5)
	for i := range img.Data() {
		img.Data()[i] = float32(rng.NormFloat64())
	}
	ca, _ := predictOne(a, img)
	cb, _ := predictOne(b, img)
	if ca.Class != cb.Class {
		t.Error("same-seed models disagree")
	}
}

func TestSSDDetectors(t *testing.T) {
	for _, build := range []func(DetectorConfig) (*SSDDetector, error){NewSSDResNet34Mini, NewSSDMobileNetMini} {
		d, err := build(DetectorConfig{Classes: 5, ImageSize: 16, Seed: 3, ScoreThreshold: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if d.Info().Params <= 0 {
			t.Error("missing params")
		}
		img := tensor.MustNew(3, 16, 16)
		rng := stats.NewRNG(11)
		for i := range img.Data() {
			img.Data()[i] = float32(rng.NormFloat64())
		}
		out, err := predictOne(d, img)
		if err != nil {
			t.Fatal(err)
		}
		boxes := out.Boxes
		if len(boxes) > 10 {
			t.Errorf("NMS kept %d boxes, cap is 10", len(boxes))
		}
		for _, b := range boxes {
			if b.X1 < 0 || b.Y1 < 0 || b.X2 > 1 || b.Y2 > 1 {
				t.Errorf("box out of bounds: %+v", b)
			}
			if b.Class < 0 || b.Class >= 5 {
				t.Errorf("box class out of range: %+v", b)
			}
			if b.Score < 0.1 {
				t.Errorf("box below score threshold: %+v", b)
			}
		}
		if len(d.Weights()) == 0 {
			t.Error("no weights exposed")
		}
		if _, err := predictOne(d, tensor.MustNew(4)); err == nil {
			t.Error("bad input rank: expected error")
		}
	}
}

func TestDetectorConfigErrors(t *testing.T) {
	if _, err := NewSSDResNet34Mini(DetectorConfig{Classes: 0}); err == nil {
		t.Error("0 classes: expected error")
	}
	if _, err := NewSSDMobileNetMini(DetectorConfig{Classes: 5, ImageSize: 4}); err == nil {
		t.Error("tiny image: expected error")
	}
}

func TestGNMTMini(t *testing.T) {
	g, err := NewGNMTMini(TranslatorConfig{Vocab: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if g.Info().Params <= 0 || g.Info().OpsPerInput <= 0 {
		t.Error("missing computed metadata")
	}
	outs, err := g.Predict([]*dataset.Sample{{Tokens: []int{5, 6, 7, 8}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range outs[0].Tokens {
		if tok < 0 || tok >= 64 {
			t.Errorf("token %d out of range", tok)
		}
	}
	if len(g.Weights()) == 0 {
		t.Error("no weights exposed")
	}
	if _, err := NewGNMTMini(TranslatorConfig{Vocab: 2}); err == nil {
		t.Error("tiny vocab: expected error")
	}
}

func TestZoo(t *testing.T) {
	zoo, err := NewZoo(ZooConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	infos := zoo.Infos()
	if len(infos) != 6 { // the five suite models plus the weight-streaming wide classifier
		t.Fatalf("zoo has %d models", len(infos))
	}
	if _, err := zoo.Weighted(ResNet50Wide); err != nil {
		t.Errorf("Weighted(%s): %v", ResNet50Wide, err)
	}
	for _, n := range AllNames() {
		info, ok := infos[n]
		if !ok {
			t.Errorf("zoo missing %s", n)
			continue
		}
		if info.Params <= 0 {
			t.Errorf("%s: params not computed", n)
		}
		if _, err := zoo.Weighted(n); err != nil {
			t.Errorf("Weighted(%s): %v", n, err)
		}
	}
	if _, err := zoo.Weighted("bert"); err == nil {
		t.Error("unknown model: expected error")
	}
	// GNMT is by far the largest parameter count in Table I; the miniature
	// should preserve that ordering against the vision models.
	if infos[GNMT].Params <= infos[MobileNetV1].Params {
		t.Error("GNMT mini should have more parameters than MobileNet mini")
	}
}
