package model

import (
	"errors"
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

func classifierCfg() Config {
	return Config{Classes: 10, ImageSize: 16, Seed: 7}
}

func TestResNet50Mini(t *testing.T) {
	m, err := New(ResNet50, classifierCfg())
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
	m, err := New(MobileNetV1, classifierCfg())
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.MustNew(3, 16, 16)
	img.Fill(-0.2)
	if _, err := predictOne(m, img); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyVsLightComputeOrdering(t *testing.T) {
	// The paper's heavy/light pairing must hold for the miniatures too:
	// ResNet-50 mini must cost several times more ops and params than
	// MobileNet mini, and SSD-ResNet more than SSD-MobileNet.
	resnet, err := New(ResNet50, classifierCfg())
	if err != nil {
		t.Fatal(err)
	}
	mobilenet, err := New(MobileNetV1, classifierCfg())
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

	ssdRes, err := New(SSDResNet34, Config{Classes: 5, ImageSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ssdMob, err := New(SSDMobileNet, Config{Classes: 5, ImageSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ssdRes.Info().OpsPerInput <= ssdMob.Info().OpsPerInput {
		t.Errorf("SSD-ResNet ops %d not heavier than SSD-MobileNet ops %d",
			ssdRes.Info().OpsPerInput, ssdMob.Info().OpsPerInput)
	}
}

func TestClassifierDeterminism(t *testing.T) {
	a, _ := New(ResNet50, classifierCfg())
	b, _ := New(ResNet50, classifierCfg())
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
	for _, name := range []Name{SSDResNet34, SSDMobileNet} {
		d, err := New(name, Config{Classes: 5, ImageSize: 16, Seed: 3, ScoreThreshold: 0.1})
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

func TestGNMTMini(t *testing.T) {
	g, err := New(GNMT, Config{Vocab: 64, Seed: 9})
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
	expectRefusals(t, []refusal{
		{GNMT, Config{Vocab: 2}, "tiny vocab"},
		{GNMT, Config{}, "0 vocab"},
	})
}

// TestZoo builds every model the suite serves, plus the weight-streaming
// wide classifier, through New and checks what each reports; an unknown name
// is refused with ErrUnknownModel.
func TestZoo(t *testing.T) {
	params := map[Name]int64{}
	for _, name := range append(AllNames(), ResNet50Wide) {
		cfg, kind := Config{Classes: 10, ImageSize: 16, Seed: 1}, dataset.KindImageClassification
		switch name {
		case SSDResNet34, SSDMobileNet:
			cfg, kind = Config{Classes: 5, ImageSize: 16, Seed: 1}, dataset.KindObjectDetection
		case GNMT:
			cfg, kind = Config{Vocab: 64, Seed: 1}, dataset.KindTranslation
		}
		m, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if m.Name() != string(name) || m.Info().Name != name || m.Kind() != kind {
			t.Errorf("New(%s): name %q, info name %q, kind %v; want kind %v", name, m.Name(), m.Info().Name, m.Kind(), kind)
		}
		if m.Info().Params <= 0 {
			t.Errorf("%s: params not computed", name)
		}
		if len(m.Weights()) == 0 {
			t.Errorf("%s: no weights exposed", name)
		}
		params[name] = m.Info().Params
	}
	// GNMT is by far the largest parameter count in Table I; the miniature
	// should preserve that ordering against the vision models.
	if params[GNMT] <= params[MobileNetV1] {
		t.Error("GNMT mini should have more parameters than MobileNet mini")
	}

	if _, err := New("bert", Config{Classes: 10}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: err = %v, want ErrUnknownModel", err)
	}
}

type refusal struct {
	name Name
	cfg  Config
	why  string
}

// expectRefusals checks that New rejects each configuration without
// returning a model.
func expectRefusals(t *testing.T, refusals []refusal) {
	t.Helper()
	for _, r := range refusals {
		if m, err := New(r.name, r.cfg); err == nil || m != nil {
			t.Errorf("New(%s) with %s: got %v, %v; want an error and no model", r.name, r.why, m, err)
		}
	}
}

func TestClassifierConfigErrors(t *testing.T) {
	expectRefusals(t, []refusal{
		{ResNet50, Config{Classes: 1}, "1 class"},
		{MobileNetV1, Config{ImageSize: 16}, "0 classes"},
		{ResNet50Wide, Config{Classes: 1}, "1 class"},
		{MobileNetV1, Config{Classes: 10, ImageSize: 4}, "tiny image"},
	})
}

func TestDetectorConfigErrors(t *testing.T) {
	expectRefusals(t, []refusal{
		{SSDResNet34, Config{Classes: 0}, "0 classes"},
		{SSDMobileNet, Config{Classes: 5, ImageSize: 4}, "tiny image"},
	})
}
