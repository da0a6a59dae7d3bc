// Package model provides the reference-model zoo of the benchmark suite.
// The paper's five reference models (ResNet-50 v1.5, MobileNet-v1,
// SSD-ResNet-34, SSD-MobileNet-v1 and GNMT) are substituted with miniature
// but structurally faithful analogues built on the internal nn package:
// residual stacks, depthwise-separable stacks, SSD-style detection heads on
// both backbones and a recurrent encoder–decoder with attention. Each model
// carries metadata mirroring Table I (parameters, operations per input,
// quality metric and target) so the suite's quality-target machinery behaves
// like the original.
//
// Every model is reached through ONE contract, Engine, and Engine.Predict is
// the only way to run a model: backends, the harness's calibration and the
// tests all hand it a slice of samples — a single-stream query is a slice of
// one, a merged offline/server query a long one — and the CNN models execute
// it as one im2col+GEMM per layer while the recurrent translator decodes the
// whole batch greedily, one GEMM per weight matrix per step with finished
// sentences compacting out of the active set (nn.Seq2Seq.TranslateBatch).
// Predict on a batch of N is bit-identical to N calls on batches of one, so
// dynamic batching is purely a scheduling decision.
//
// Large batches run as micro-batches whose size each engine derives from its
// per-sample activation footprint against a fixed cache budget (see
// microBatchFor): wide-activation models batch shallow so one micro-batch's
// working set stays cache-resident, the translator's tiny step state batches
// to the cap. Engines publish the derived size through BatchSizer so
// backends can size inference chunks to it.
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

// WeightedModel exposes a model's weight tensors for post-training
// quantization (Section III-B / IV-A allow weight-format changes with
// calibration but prohibit retraining).
type WeightedModel interface {
	// Weights returns the model's mutable weight tensors.
	Weights() []*tensor.Tensor
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
// and OpsPerInput fields are zero until a concrete model is built; BuildInfo
// fills them from an instantiated model.
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
