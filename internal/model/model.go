// Package model builds the benchmark's reference models and runs them. The
// paper's five reference models (ResNet-50 v1.5, MobileNet-v1, SSD-ResNet-34,
// SSD-MobileNet-v1 and GNMT) are substituted with miniature but structurally
// faithful analogues built on the internal nn package: residual stacks,
// depthwise-separable stacks, SSD-style detection heads on both backbones and
// a recurrent encoder–decoder with attention. Each model carries metadata
// mirroring Table I (parameters, operations per input, quality metric and
// target) so the suite's quality-target machinery behaves like the original.
//
// New(name, Config) is the one constructor. Config holds the five settings a
// caller chooses — classes, image size, vocabulary, seed and the detectors'
// score threshold — and every other architectural figure is a constant of
// the model. The returned Model is an Engine plus its Table I Info and its
// weight tensors (for post-training quantization).
//
// Engine.Predict is the only way to run a model: backends, the harness's
// calibration and the tests all hand it a slice of samples — a single-stream
// query is a slice of one, a merged offline/server query a long one. One
// micro-batch driver serves every model; per micro-batch the CNNs run one
// im2col+GEMM per layer and then take a per-sample argmax (classifiers) or an
// SSD box decode (detectors), while the translator decodes the whole
// micro-batch greedily, one GEMM per weight matrix per step with finished
// sentences compacting out of the active set (nn.Seq2Seq.TranslateBatch).
// Predict on a batch of N is bit-identical to N calls on batches of one, so
// dynamic batching is purely a scheduling decision.
//
// The micro-batch size derives from each model's per-sample activation
// footprint against a cache budget (see microBatchFor): wide-activation
// models batch shallow so one micro-batch's working set stays cache-resident,
// the translator's tiny step state batches to the cap. Models publish the
// derived size through BatchSizer so backends can size inference chunks to
// it.
package model

import (
	"fmt"

	"mlperf/internal/tensor"
)

// Name identifies a reference model in the v0.5 suite.
type Name string

// The five reference models of MLPerf Inference v0.5 (Table I).
const (
	ResNet50     Name = "resnet50-v1.5"
	MobileNetV1  Name = "mobilenet-v1"
	SSDResNet34  Name = "ssd-resnet34"
	SSDMobileNet Name = "ssd-mobilenet-v1"
	GNMT         Name = "gnmt"
)

// ResNet50Wide is a wide-channel variant of the heavyweight classifier whose
// weights exceed a typical L2 cache. It is not part of the v0.5 suite
// (AllNames excludes it); it exists to exhibit the paper's "large batches to
// reach peak" effect on weight streaming: batched GEMMs stream the
// out-of-cache weight panels once per micro-batch instead of once per sample.
const ResNet50Wide Name = "resnet50-wide"

// AllNames lists every reference model in a stable order.
func AllNames() []Name {
	return []Name{ResNet50, MobileNetV1, SSDResNet34, SSDMobileNet, GNMT}
}

// Model is a built reference model: the Engine that runs it, its Table I
// metadata and its weight tensors.
type Model interface {
	Engine
	// Info returns the model's metadata with Params and OpsPerInput filled
	// in from the built network.
	Info() Info
	// Weights returns the model's mutable weight tensors, for post-training
	// quantization (Sections III-B and IV-A allow weight-format changes with
	// calibration but prohibit retraining).
	Weights() []*tensor.Tensor
}

// Config sets the parameters a caller chooses when building a model. Fields a
// model kind does not use are ignored.
type Config struct {
	// Classes is the label count of a classifier (at least 2) or the object
	// class count of a detector (at least 1; background is implicit).
	Classes int
	// ImageSize is the square input height and width of the vision models:
	// 0 means 16, anything else must be at least 8.
	ImageSize int
	// Vocab is the translator's source and target vocabulary (at least 8).
	Vocab int
	// Seed drives weight initialization.
	Seed uint64
	// ScoreThreshold is the detectors' minimum box score (0 means 0.3).
	ScoreThreshold float64
}

// New builds the named reference model deterministically from cfg.Seed.
func New(name Name, cfg Config) (Model, error) {
	info, err := Describe(name)
	if err != nil {
		return nil, err
	}
	var m *network
	switch name {
	case GNMT:
		m, err = newGNMT(info, cfg)
	case ResNet50, MobileNetV1, ResNet50Wide:
		m, err = newClassifier(info, cfg)
	case SSDResNet34, SSDMobileNet:
		m, err = newDetector(info, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("model: building %s: %w", name, err)
	}
	return m, nil
}

// Info is the Table I metadata for a reference model.
type Info struct {
	Name      Name
	PaperName string
	Area      string // "Vision" or "Language"
	TaskLabel string // e.g. "Image classification (heavy)"

	// Miniature-model figures computed from the in-repo implementation.
	Params      int64
	OpsPerInput int64

	// Published figures from Table I, kept for the modeled-vs-measured
	// analysis of Section VII-D and for documentation.
	PaperParams      int64
	PaperOpsPerInput int64

	// QualityMetric names the accuracy metric ("top1", "mAP", "BLEU").
	QualityMetric string
	// PaperReferenceQuality is the FP32 reference quality from Table I
	// (fraction for top1/mAP, BLEU points for translation).
	PaperReferenceQuality float64
	// TargetRatio is the fraction of the reference quality an equivalent
	// implementation must reach (0.99 for most models, 0.98 for MobileNet).
	TargetRatio float64
}

// QualityTarget returns the minimum acceptable quality given the measured
// FP32 reference quality of the miniature model.
func (i Info) QualityTarget(referenceQuality float64) float64 {
	return referenceQuality * i.TargetRatio
}

// ErrUnknownModel is returned for names outside the v0.5 suite.
var ErrUnknownModel = fmt.Errorf("model: unknown reference model")

// Describe returns the static Table I metadata for a model name. The Params
// and OpsPerInput fields are zero; a built Model's Info fills them in.
func Describe(n Name) (Info, error) {
	switch n {
	case ResNet50:
		return Info{
			Name: n, PaperName: "ResNet-50 v1.5", Area: "Vision",
			TaskLabel:   "Image classification (heavy)",
			PaperParams: 25_600_000, PaperOpsPerInput: 8_200_000_000,
			QualityMetric: "top1", PaperReferenceQuality: 0.76456, TargetRatio: 0.99,
		}, nil
	case MobileNetV1:
		return Info{
			Name: n, PaperName: "MobileNet-v1 224", Area: "Vision",
			TaskLabel:   "Image classification (light)",
			PaperParams: 4_200_000, PaperOpsPerInput: 1_138_000_000,
			QualityMetric: "top1", PaperReferenceQuality: 0.71676, TargetRatio: 0.98,
		}, nil
	case SSDResNet34:
		return Info{
			Name: n, PaperName: "SSD-ResNet-34", Area: "Vision",
			TaskLabel:   "Object detection (heavy)",
			PaperParams: 36_300_000, PaperOpsPerInput: 433_000_000_000,
			QualityMetric: "mAP", PaperReferenceQuality: 0.20, TargetRatio: 0.99,
		}, nil
	case SSDMobileNet:
		return Info{
			Name: n, PaperName: "SSD-MobileNet-v1", Area: "Vision",
			TaskLabel:   "Object detection (light)",
			PaperParams: 6_910_000, PaperOpsPerInput: 2_470_000_000,
			QualityMetric: "mAP", PaperReferenceQuality: 0.22, TargetRatio: 0.99,
		}, nil
	case GNMT:
		return Info{
			Name: n, PaperName: "GNMT", Area: "Language",
			TaskLabel:   "Machine translation",
			PaperParams: 210_000_000, PaperOpsPerInput: 0,
			QualityMetric: "BLEU", PaperReferenceQuality: 23.9, TargetRatio: 0.99,
		}, nil
	case ResNet50Wide:
		return Info{
			Name: n, PaperName: "ResNet-50 v1.5 (wide)", Area: "Vision",
			TaskLabel: "Image classification (weight-streaming)",
			// Not a Table I entry: no published figures to mirror.
			QualityMetric: "top1", PaperReferenceQuality: 0.76456, TargetRatio: 0.99,
		}, nil
	default:
		return Info{}, fmt.Errorf("%w: %q", ErrUnknownModel, n)
	}
}
