package model

import (
	"fmt"
	"math"
	"sort"

	"mlperf/internal/metrics"
	"mlperf/internal/nn"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// DetectorConfig configures the miniature SSD-style object detectors.
type DetectorConfig struct {
	Classes        int // object classes (background is implicit)
	Channels       int
	ImageSize      int
	Seed           uint64
	ScoreThreshold float64
	NMSIoU         float64
	MaxDetections  int
}

func (c *DetectorConfig) normalize() error {
	if c.Classes <= 0 {
		return fmt.Errorf("model: detector needs at least 1 object class, got %d", c.Classes)
	}
	if c.Channels <= 0 {
		c.Channels = 3
	}
	if c.ImageSize <= 0 {
		c.ImageSize = 16
	}
	if c.ImageSize < 8 {
		return fmt.Errorf("model: image size %d too small for the detector backbone", c.ImageSize)
	}
	if c.ScoreThreshold <= 0 {
		c.ScoreThreshold = 0.3
	}
	if c.NMSIoU <= 0 {
		c.NMSIoU = 0.5
	}
	if c.MaxDetections <= 0 {
		c.MaxDetections = 10
	}
	return nil
}

// SSDDetector is a single-shot detector: a CNN backbone producing a feature
// map, and a convolutional head that predicts, for every feature-map cell,
// class scores and box offsets relative to the cell's anchor.
type SSDDetector struct {
	info      Info
	backbone  *nn.Sequential
	head      *nn.Conv
	inShape   []int
	classes   int
	cfg       DetectorConfig
	featH     int
	featW     int
	footprint int // per-sample activation bytes; micro-batch derives live
}

// Info returns the model's metadata with Params and OpsPerInput filled in.
func (d *SSDDetector) Info() Info { return d.info }

// InputShape returns the expected CHW input shape.
func (d *SSDDetector) InputShape() []int {
	s := make([]int, len(d.inShape))
	copy(s, d.inShape)
	return s
}

// Weights implements WeightedModel.
func (d *SSDDetector) Weights() []*tensor.Tensor {
	w := collectWeights(d.backbone)
	w = append(w, d.head.Weights, d.head.Bias)
	return w
}

// decode converts one sample's (perCell × H × W) head output into scored
// boxes with a sigmoid score per class, a score threshold, and greedy
// non-maximum suppression — the same post-processing shape as the reference
// SSD models.
func (d *SSDDetector) decode(raw *tensor.Tensor) ([]metrics.Box, error) {
	shape := raw.Shape()
	perCell := 4 + d.classes
	if shape[0] != perCell {
		return nil, fmt.Errorf("model %s: head produced %d channels, want %d", d.info.Name, shape[0], perCell)
	}
	h, w := shape[1], shape[2]
	var candidates []metrics.Box
	for cy := 0; cy < h; cy++ {
		for cx := 0; cx < w; cx++ {
			// Anchor box centred on the cell.
			anchorCX := (float64(cx) + 0.5) / float64(w)
			anchorCY := (float64(cy) + 0.5) / float64(h)
			anchorW := 1.5 / float64(w)
			anchorH := 1.5 / float64(h)

			dx := float64(raw.At(0, cy, cx))
			dy := float64(raw.At(1, cy, cx))
			dw := float64(raw.At(2, cy, cx))
			dh := float64(raw.At(3, cy, cx))

			cxp := anchorCX + 0.1*sigmoid64(dx) - 0.05
			cyp := anchorCY + 0.1*sigmoid64(dy) - 0.05
			wp := anchorW * (0.5 + sigmoid64(dw))
			hp := anchorH * (0.5 + sigmoid64(dh))

			bestClass, bestScore := -1, 0.0
			for c := 0; c < d.classes; c++ {
				score := sigmoid64(float64(raw.At(4+c, cy, cx)))
				if score > bestScore {
					bestScore = score
					bestClass = c
				}
			}
			if bestClass < 0 || bestScore < d.cfg.ScoreThreshold {
				continue
			}
			box := metrics.Box{
				X1: clamp01(cxp - wp/2), Y1: clamp01(cyp - hp/2),
				X2: clamp01(cxp + wp/2), Y2: clamp01(cyp + hp/2),
				Class: bestClass, Score: bestScore,
			}
			if box.Area() > 0 {
				candidates = append(candidates, box)
			}
		}
	}
	return nonMaxSuppression(candidates, d.cfg.NMSIoU, d.cfg.MaxDetections), nil
}

// sigmoid64 is the logistic function rounded through float32 (float32 in,
// float64 math, float32 out), the precision the head's activations carry.
func sigmoid64(x float64) float64 {
	return float64(float32(1 / (1 + math.Exp(-float64(float32(x))))))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// nonMaxSuppression greedily keeps the highest-scoring boxes, dropping boxes
// of the same class that overlap a kept box by more than iouThreshold.
func nonMaxSuppression(boxes []metrics.Box, iouThreshold float64, maxKeep int) []metrics.Box {
	sort.SliceStable(boxes, func(i, j int) bool { return boxes[i].Score > boxes[j].Score })
	var kept []metrics.Box
	for _, b := range boxes {
		if len(kept) >= maxKeep {
			break
		}
		suppressed := false
		for _, k := range kept {
			if k.Class == b.Class && metrics.IoU(k, b) > iouThreshold {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, b)
		}
	}
	return kept
}

// NewSSDResNet34Mini builds the heavyweight detector: an SSD head on a
// residual backbone.
func NewSSDResNet34Mini(cfg DetectorConfig) (*SSDDetector, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x55dd34)
	backbone := nn.NewSequential("ssd-resnet34-backbone",
		nn.NewConv("stem", cfg.Channels, 16, 3, 1, 1, rng),
		nn.NewResidual("res1", nn.NewSequential("res1_body",
			nn.NewConv("r1c1", 16, 16, 3, 1, 1, rng),
			nn.NewConv("r1c2", 16, 16, 3, 1, 1, rng),
		)),
		nn.NewConv("down1", 16, 32, 3, 2, 1, rng),
		nn.NewResidual("res2", nn.NewSequential("res2_body",
			nn.NewConv("r2c1", 32, 32, 3, 1, 1, rng),
			nn.NewConv("r2c2", 32, 32, 3, 1, 1, rng),
		)),
		nn.NewConv("down2", 32, 32, 3, 2, 1, rng),
	)
	return finishDetector(SSDResNet34, backbone, 32, cfg, rng)
}

// NewSSDMobileNetMini builds the lightweight detector: an SSD head on a
// depthwise-separable backbone.
func NewSSDMobileNetMini(cfg DetectorConfig) (*SSDDetector, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x55dd01)
	backbone := nn.NewSequential("ssd-mobilenet-backbone",
		nn.NewConv("stem", cfg.Channels, 8, 3, 2, 1, rng),
		nn.NewDepthwiseConv("dw1", 8, 3, 1, 1, rng),
		pointwise("pw1", 8, 16, rng),
		nn.NewDepthwiseConv("dw2", 16, 3, 2, 1, rng),
		pointwise("pw2", 16, 16, rng),
	)
	return finishDetector(SSDMobileNet, backbone, 16, cfg, rng)
}

// finishDetector attaches the SSD head and fills metadata.
func finishDetector(name Name, backbone *nn.Sequential, featC int, cfg DetectorConfig, rng *stats.RNG) (*SSDDetector, error) {
	info, err := Describe(name)
	if err != nil {
		return nil, err
	}
	inShape := []int{cfg.Channels, cfg.ImageSize, cfg.ImageSize}
	featShape, err := backbone.OutputShape(inShape)
	if err != nil {
		return nil, fmt.Errorf("model %s: invalid backbone for input %v: %w", name, inShape, err)
	}
	if featShape[0] != featC {
		return nil, fmt.Errorf("model %s: backbone produced %d channels, want %d", name, featShape[0], featC)
	}
	head := nn.NewConv("ssd-head", featC, 4+cfg.Classes, 3, 1, 1, rng)
	head.Relu = false

	backOps, err := backbone.Ops(inShape)
	if err != nil {
		return nil, err
	}
	headOps, err := head.Ops(featShape)
	if err != nil {
		return nil, err
	}
	footprint, err := activationFootprintBytes(append(append([]nn.Layer{}, backbone.Layers()...), head), inShape)
	if err != nil {
		return nil, err
	}
	info.Params = backbone.ParamCount() + head.ParamCount()
	info.OpsPerInput = backOps + headOps
	return &SSDDetector{
		info: info, backbone: backbone, head: head, inShape: inShape,
		classes: cfg.Classes, cfg: cfg, featH: featShape[1], featW: featShape[2],
		footprint: footprint,
	}, nil
}
