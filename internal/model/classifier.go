package model

import (
	"fmt"

	"mlperf/internal/dataset"
	"mlperf/internal/nn"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// imageChannels is the input channel count of every vision model.
const imageChannels = 3

// imageShape validates cfg's image size and returns the CHW input shape.
func imageShape(cfg Config) ([]int, error) {
	size := cfg.ImageSize
	if size <= 0 {
		size = 16
	}
	if size < 8 {
		return nil, fmt.Errorf("image size %d too small for the backbone strides", size)
	}
	return []int{imageChannels, size, size}, nil
}

// newCNN wraps a convolutional network over CHW images. Each micro-batch is
// stacked channel-major, runs through net as one batched forward pass, and
// decode turns net's output into one Output per sample.
func newCNN(info Info, kind dataset.Kind, net *nn.Sequential, inShape []int, decode func(y *tensor.Tensor, out []Output, s *tensor.Scratch) error) (*network, error) {
	ops, err := net.Ops(inShape)
	if err != nil {
		return nil, fmt.Errorf("invalid architecture for input %v: %w", inShape, err)
	}
	footprint, err := activationFootprintBytes(net.Layers(), inShape)
	if err != nil {
		return nil, err
	}
	info.Params = net.ParamCount()
	info.OpsPerInput = ops
	step := func(group []*dataset.Sample, out []Output, s *tensor.Scratch) error {
		batch, err := stackImages(info.Name, inShape, group, s)
		if err != nil {
			return err
		}
		y, err := net.Forward(batch, s)
		if err != nil {
			return err
		}
		return decode(y, out, s)
	}
	return &network{info: info, kind: kind, weights: collectWeights(net), footprint: footprint, step: step}, nil
}

// wideL2Budget is the L2 size the wide classifier's weights must exceed for
// the weight-streaming amortization effect to be visible: below it the whole
// weight set is cache-resident and batched-vs-per-sample GEMM is
// throughput-neutral on one core.
const wideL2Budget = 1 << 20

// newClassifier builds an image classifier whose head emits one logit column
// per sample; the prediction is the column's argmax.
//
//   - ResNet50: a residual CNN in the style of ResNet-50 v1.5.
//   - ResNet50Wide: the same topology at 2–4× the widths, which puts its
//     weights (~3.5 MB) past a typical L2 cache (wideL2Budget). A batch of
//     one re-streams every weight panel per sample while a larger Predict
//     streams each panel once per micro-batch — the paper's "large batches
//     to reach peak" effect at cache scale.
//   - MobileNetV1: a depthwise-separable CNN in the style of MobileNet-v1.
func newClassifier(info Info, cfg Config) (*network, error) {
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("classifier needs at least 2 classes, got %d", cfg.Classes)
	}
	inShape, err := imageShape(cfg)
	if err != nil {
		return nil, err
	}
	var net *nn.Sequential
	switch info.Name {
	case ResNet50:
		net = residualStack("resnet50-mini", []int{16, 32, 64}, cfg, stats.NewRNG(cfg.Seed^0x5e5e5e))
	case ResNet50Wide:
		net = residualStack("resnet50-wide-mini", []int{32, 64, 256}, cfg, stats.NewRNG(cfg.Seed^0x71de5e))
	default:
		net = mobileNetStack(cfg, stats.NewRNG(cfg.Seed^0x30b11e))
	}
	m, err := newCNN(info, dataset.KindImageClassification, net, inShape, func(logits *tensor.Tensor, out []Output, _ *tensor.Scratch) error {
		if logits.Rank() != 2 || logits.Dim(1) != len(out) {
			return fmt.Errorf("model %s: batched head produced %v, want [classes %d]", info.Name, logits.Shape(), len(out))
		}
		for i := range out {
			class, err := tensor.ColumnArgMax(logits, i)
			if err != nil {
				return err
			}
			out[i] = Output{Kind: dataset.KindImageClassification, Class: class}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if info.Name == ResNet50Wide && weightBytes(m.weights) <= wideL2Budget {
		return nil, fmt.Errorf("weights are %d bytes, expected to exceed the %d-byte L2 budget", weightBytes(m.weights), wideL2Budget)
	}
	return m, nil
}

// residualStack builds a stem convolution, one stage of two residual blocks
// per width (with a stride-2 projection between widths), global average
// pooling and a dense classifier.
func residualStack(name string, widths []int, cfg Config, rng *stats.RNG) *nn.Sequential {
	seq := nn.NewSequential(name,
		nn.NewConv("stem", imageChannels, widths[0], 3, 1, 1, rng),
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
	return seq.Add(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", inC, cfg.Classes, false, rng),
	)
}

// mobileNetStack builds alternating depthwise and pointwise convolutions,
// global average pooling and a dense classifier.
func mobileNetStack(cfg Config, rng *stats.RNG) *nn.Sequential {
	seq := nn.NewSequential("mobilenet-v1-mini",
		nn.NewConv("stem", imageChannels, 8, 3, 2, 1, rng),
	)
	inC := 8
	for i, w := range []int{16, 32, 32} {
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
	return seq.Add(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", inC, cfg.Classes, false, rng),
	)
}

// pointwise returns a 1x1 convolution used after each depthwise convolution.
func pointwise(name string, inC, outC int, rng *stats.RNG) *nn.Conv {
	c := nn.NewConv(name, inC, outC, 1, 1, 0, rng)
	c.Relu6 = true
	return c
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

// weightBytes sums the storage of a set of weight tensors.
func weightBytes(weights []*tensor.Tensor) int {
	total := 0
	for _, w := range weights {
		total += 4 * w.Len()
	}
	return total
}
