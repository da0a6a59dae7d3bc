package model

import (
	"fmt"
	"math"
	"sort"

	"mlperf/internal/dataset"
	"mlperf/internal/metrics"
	"mlperf/internal/nn"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// Detector post-processing constants: boxes of one class overlapping a kept
// box by more than ssdNMSIoU are suppressed, and at most ssdMaxDetections
// boxes are kept per sample.
const (
	ssdNMSIoU        = 0.5
	ssdMaxDetections = 10
)

// newDetector builds a single-shot detector: a CNN backbone producing a
// feature map, and a convolutional head that predicts, for every feature-map
// cell, class scores and box offsets relative to the cell's anchor.
// SSDResNet34 puts the head on a residual backbone, SSDMobileNet on a
// depthwise-separable one. Backbone and head run once per micro-batch; only
// the box decode (threshold + NMS) runs per sample.
func newDetector(info Info, cfg Config) (*network, error) {
	if cfg.Classes < 1 {
		return nil, fmt.Errorf("detector needs at least 1 object class, got %d", cfg.Classes)
	}
	inShape, err := imageShape(cfg)
	if err != nil {
		return nil, err
	}
	threshold := cfg.ScoreThreshold
	if threshold <= 0 {
		threshold = 0.3
	}
	var (
		net *nn.Sequential
		rng *stats.RNG
	)
	if info.Name == SSDResNet34 {
		rng = stats.NewRNG(cfg.Seed ^ 0x55dd34)
		net = nn.NewSequential("ssd-resnet34",
			nn.NewConv("stem", imageChannels, 16, 3, 1, 1, rng),
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
	} else {
		rng = stats.NewRNG(cfg.Seed ^ 0x55dd01)
		net = nn.NewSequential("ssd-mobilenet",
			nn.NewConv("stem", imageChannels, 8, 3, 2, 1, rng),
			nn.NewDepthwiseConv("dw1", 8, 3, 1, 1, rng),
			pointwise("pw1", 8, 16, rng),
			nn.NewDepthwiseConv("dw2", 16, 3, 2, 1, rng),
			pointwise("pw2", 16, 16, rng),
		)
	}
	featShape, err := net.OutputShape(inShape)
	if err != nil {
		return nil, fmt.Errorf("invalid backbone for input %v: %w", inShape, err)
	}
	head := nn.NewConv("ssd-head", featShape[0], 4+cfg.Classes, 3, 1, 1, rng)
	head.Relu = false
	net.Add(head)

	return newCNN(info, dataset.KindObjectDetection, net, inShape, func(raw *tensor.Tensor, out []Output, s *tensor.Scratch) error {
		if raw.Rank() != 4 {
			return fmt.Errorf("model %s: batched head produced %v, want [perCell N H W]", info.Name, raw.Shape())
		}
		// Gather each sample's CHW head output out of the channel-major
		// batch for the per-sample decode.
		sampleRaw := s.Tensor(raw.Dim(0), raw.Dim(2), raw.Dim(3))
		for i := range out {
			if err := tensor.UnpackSample(sampleRaw, raw, i); err != nil {
				return err
			}
			boxes, err := decodeSSD(sampleRaw, cfg.Classes, threshold)
			if err != nil {
				return err
			}
			out[i] = Output{Kind: dataset.KindObjectDetection, Boxes: boxes}
		}
		return nil
	})
}

// decode converts one sample's (perCell × H × W) head output into scored
// boxes with a sigmoid score per class, a score threshold, and greedy
// non-maximum suppression — the same post-processing shape as the reference
// SSD models.
func decodeSSD(raw *tensor.Tensor, classes int, threshold float64) ([]metrics.Box, error) {
	shape := raw.Shape()
	if perCell := 4 + classes; shape[0] != perCell {
		return nil, fmt.Errorf("head produced %d channels, want %d", shape[0], perCell)
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
			for c := 0; c < classes; c++ {
				score := sigmoid64(float64(raw.At(4+c, cy, cx)))
				if score > bestScore {
					bestScore = score
					bestClass = c
				}
			}
			if bestClass < 0 || bestScore < threshold {
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
	return nonMaxSuppression(candidates, ssdNMSIoU, ssdMaxDetections), nil
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
