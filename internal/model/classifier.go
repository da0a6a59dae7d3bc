package model

import (
	"fmt"

	"mlperf/internal/nn"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// ClassifierConfig configures the miniature image-classification models.
type ClassifierConfig struct {
	Classes   int
	Channels  int // input channels
	ImageSize int // square input height/width
	Seed      uint64
}

func (c *ClassifierConfig) normalize() error {
	if c.Classes <= 1 {
		return fmt.Errorf("model: classifier needs at least 2 classes, got %d", c.Classes)
	}
	if c.Channels <= 0 {
		c.Channels = 3
	}
	if c.ImageSize <= 0 {
		c.ImageSize = 16
	}
	if c.ImageSize < 8 {
		return fmt.Errorf("model: image size %d too small for the backbone strides", c.ImageSize)
	}
	return nil
}

// ImageClassifier is a CNN classifier built from an nn.Sequential backbone.
type ImageClassifier struct {
	info      Info
	net       *nn.Sequential
	inShape   []int
	footprint int // per-sample activation bytes; micro-batch derives live
}

// Info returns the model's metadata with Params and OpsPerInput filled in.
func (m *ImageClassifier) Info() Info { return m.info }

// InputShape returns the expected CHW input shape.
func (m *ImageClassifier) InputShape() []int {
	s := make([]int, len(m.inShape))
	copy(s, m.inShape)
	return s
}

// Weights implements WeightedModel.
func (m *ImageClassifier) Weights() []*tensor.Tensor {
	return collectWeights(m.net)
}

// collectWeights walks a layer tree and gathers every weight tensor.
func collectWeights(layer nn.Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	switch l := layer.(type) {
	case *nn.Sequential:
		for _, sub := range l.Layers() {
			out = append(out, collectWeights(sub)...)
		}
	case *nn.Residual:
		out = append(out, collectWeights(l.Body())...)
	case *nn.Conv:
		out = append(out, l.Weights, l.Bias)
	case *nn.DepthwiseConv:
		out = append(out, l.Weights, l.Bias)
	case *nn.Dense:
		out = append(out, l.Weights, l.Bias)
	}
	return out
}

// NewResNet50Mini builds the heavyweight image classifier: a residual CNN in
// the style of ResNet-50 v1.5 (stem convolution, three residual stages with
// increasing width, global average pooling and a dense classifier).
func NewResNet50Mini(cfg ClassifierConfig) (*ImageClassifier, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x5e5e5e)
	widths := []int{16, 32, 64}
	seq := nn.NewSequential("resnet50-mini",
		nn.NewConv("stem", cfg.Channels, widths[0], 3, 1, 1, rng),
	)
	inC := widths[0]
	for stage, w := range widths {
		if w != inC {
			// Projection to the new width with stride 2 downsampling.
			seq.Add(nn.NewConv(fmt.Sprintf("proj%d", stage), inC, w, 3, 2, 1, rng))
			inC = w
		}
		for b := 0; b < 2; b++ {
			body := nn.NewSequential(fmt.Sprintf("stage%d_block%d", stage, b),
				nn.NewConv(fmt.Sprintf("s%db%d_c1", stage, b), w, w, 3, 1, 1, rng),
				nn.NewConv(fmt.Sprintf("s%db%d_c2", stage, b), w, w, 3, 1, 1, rng),
			)
			seq.Add(nn.NewResidual(fmt.Sprintf("s%db%d", stage, b), body))
		}
	}
	seq.Add(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", inC, cfg.Classes, false, rng),
	)
	return finishClassifier(ResNet50, seq, cfg)
}

// NewMobileNetV1Mini builds the lightweight image classifier: a
// depthwise-separable CNN in the style of MobileNet-v1 (alternating depthwise
// and pointwise convolutions).
func NewMobileNetV1Mini(cfg ClassifierConfig) (*ImageClassifier, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x30b11e)
	seq := nn.NewSequential("mobilenet-v1-mini",
		nn.NewConv("stem", cfg.Channels, 8, 3, 2, 1, rng),
	)
	widths := []int{16, 32, 32}
	inC := 8
	for i, w := range widths {
		stride := 1
		if i > 0 && i%2 == 0 {
			stride = 2
		}
		seq.Add(
			nn.NewDepthwiseConv(fmt.Sprintf("dw%d", i), inC, 3, stride, 1, rng),
			pointwise(fmt.Sprintf("pw%d", i), inC, w, rng),
		)
		inC = w
	}
	seq.Add(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", inC, cfg.Classes, false, rng),
	)
	return finishClassifier(MobileNetV1, seq, cfg)
}

// wideL2Budget is the L2 size the wide classifier's weights must exceed for
// the weight-streaming amortization effect to be visible: below it the whole
// weight set is cache-resident and batched-vs-per-sample GEMM is
// throughput-neutral on one core (BENCH_PR2).
const wideL2Budget = 1 << 20

// NewWideResNetMini builds the weight-streaming classifier: the same residual
// topology as the mini ResNet-50 but with 4× the channel widths, which puts
// its weight tensors (~3.5 MB) well past a typical L2 cache (wideL2Budget).
// A batch of one must then re-stream every weight panel from memory for
// every sample, while a larger Predict streams each panel once per
// micro-batch — the "large batch sizes to reach peak" effect of the paper's
// throughput scenarios, reproduced at cache scale.
func NewWideResNetMini(cfg ClassifierConfig) (*ImageClassifier, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x71de5e)
	widths := []int{32, 64, 256}
	seq := nn.NewSequential("resnet50-wide-mini",
		nn.NewConv("stem", cfg.Channels, widths[0], 3, 1, 1, rng),
	)
	inC := widths[0]
	for stage, w := range widths {
		if w != inC {
			seq.Add(nn.NewConv(fmt.Sprintf("proj%d", stage), inC, w, 3, 2, 1, rng))
			inC = w
		}
		for b := 0; b < 2; b++ {
			body := nn.NewSequential(fmt.Sprintf("stage%d_block%d", stage, b),
				nn.NewConv(fmt.Sprintf("s%db%d_c1", stage, b), w, w, 3, 1, 1, rng),
				nn.NewConv(fmt.Sprintf("s%db%d_c2", stage, b), w, w, 3, 1, 1, rng),
			)
			seq.Add(nn.NewResidual(fmt.Sprintf("s%db%d", stage, b), body))
		}
	}
	seq.Add(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", inC, cfg.Classes, false, rng),
	)
	m, err := finishClassifier(ResNet50Wide, seq, cfg)
	if err != nil {
		return nil, err
	}
	if bytes := weightBytes(m); bytes <= wideL2Budget {
		return nil, fmt.Errorf("model %s: weights are %d bytes, expected to exceed the %d-byte L2 budget", ResNet50Wide, bytes, wideL2Budget)
	}
	return m, nil
}

// weightBytes sums a model's weight storage.
func weightBytes(m WeightedModel) int {
	total := 0
	for _, w := range m.Weights() {
		total += 4 * w.Len()
	}
	return total
}

// pointwise returns a 1x1 convolution used after each depthwise convolution.
func pointwise(name string, inC, outC int, rng *stats.RNG) *nn.Conv {
	c := nn.NewConv(name, inC, outC, 1, 1, 0, rng)
	c.Relu6 = true
	return c
}

// finishClassifier fills metadata from the constructed network.
func finishClassifier(name Name, seq *nn.Sequential, cfg ClassifierConfig) (*ImageClassifier, error) {
	info, err := Describe(name)
	if err != nil {
		return nil, err
	}
	inShape := []int{cfg.Channels, cfg.ImageSize, cfg.ImageSize}
	if _, err := seq.OutputShape(inShape); err != nil {
		return nil, fmt.Errorf("model %s: invalid architecture for input %v: %w", name, inShape, err)
	}
	ops, err := seq.Ops(inShape)
	if err != nil {
		return nil, err
	}
	footprint, err := activationFootprintBytes(seq.Layers(), inShape)
	if err != nil {
		return nil, err
	}
	info.Params = seq.ParamCount()
	info.OpsPerInput = ops
	return &ImageClassifier{info: info, net: seq, inShape: inShape, footprint: footprint}, nil
}
