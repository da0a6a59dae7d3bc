// Package harness wires the benchmark's components together (Figure 3): it
// builds a task's reference model, synthetic data set and query sample
// library, constructs a system under test, runs the LoadGen in performance
// and accuracy modes, and scores quality with the accuracy script. It also
// provides the virtual-time "simulated submission" path used to regenerate
// the paper's evaluation figures across the platform catalogue.
package harness

import (
	"fmt"
	"runtime"

	"mlperf/internal/accuracy"
	"mlperf/internal/backend"
	"mlperf/internal/core"
	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/metrics"
	"mlperf/internal/model"
	"mlperf/internal/quantize"
	"mlperf/internal/stats"
)

// BuildOptions configures BuildNative.
type BuildOptions struct {
	// DatasetSamples is the synthetic data-set size (default 256).
	DatasetSamples int
	// Classes is the label/object-class count for vision tasks (default 10).
	Classes int
	// ImageSize is the square input resolution for vision tasks (default 16).
	ImageSize int
	// Vocab is the vocabulary size for translation (default 64).
	Vocab int
	// Seed drives model initialization, data generation and calibration.
	Seed uint64
	// Workers is the native backend's inference concurrency (defaults to
	// runtime.GOMAXPROCS, i.e. all cores).
	Workers int
	// Quantization, when non-empty, converts the model weights to the given
	// format after the FP32 reference quality is established, using the
	// calibration subset (closed-division quantization flow).
	Quantization quantize.Format
	// CalibrationSamples is the size of the calibration subset (default 32).
	CalibrationSamples int
}

func (o *BuildOptions) normalize() {
	if o.DatasetSamples <= 0 {
		o.DatasetSamples = 256
	}
	if o.Classes <= 1 {
		o.Classes = 10
	}
	if o.ImageSize < 8 {
		o.ImageSize = 16
	}
	if o.Vocab < 8 {
		o.Vocab = 64
	}
	if o.Workers <= 0 {
		// All cores, floored at 2 so the issue loop still overlaps with an
		// in-flight inference on single-core hosts (matches backend.Native).
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.CalibrationSamples <= 0 {
		o.CalibrationSamples = 32
	}
}

// Assembly is a fully wired, runnable benchmark task.
type Assembly struct {
	Spec    core.TaskSpec
	Info    model.Info
	Dataset dataset.Dataset
	QSL     *dataset.QSL
	SUT     loadgen.SUT
	// Engine is the inference engine behind the SUT, exposed so alternative
	// SUT frontends (the loopback serving path, benchmarks) can reuse it.
	Engine model.Engine

	// ReferenceQuality is the FP32 reference model's measured quality on the
	// synthetic data set; the quality target is Spec.TargetRatio times it.
	ReferenceQuality float64
	// QualityTarget is the minimum quality an equivalent implementation must
	// reach.
	QualityTarget float64
	// QuantizationStats records the weight conversion if quantization was
	// requested.
	QuantizationStats []quantize.TensorStats

	// observed is the SUT's post-run inspection view: Run drains it and
	// fails on accumulated inference errors. backend.Native and
	// backend.Remote both satisfy it.
	observed sutObserver
}

// sutObserver is the post-run view a backend exposes to the harness.
type sutObserver interface {
	Wait()
	Errors() []error
}

// NativeBackend returns the underlying native backend for error inspection,
// or nil when the assembly's SUT is not a backend.Native.
func (a *Assembly) NativeBackend() *backend.Native {
	n, _ := a.observed.(*backend.Native)
	return n
}

// SetSUT swaps the system under test, updating the harness's post-run
// inspection view when the new SUT exposes one (backend.Native, Simulated
// and Remote all do).
func (a *Assembly) SetSUT(sut loadgen.SUT) {
	a.SUT = sut
	if obs, ok := sut.(sutObserver); ok {
		a.observed = obs
	} else {
		a.observed = nil
	}
}

// BuildNative assembles a task around the in-repo reference models and
// synthetic data. The data set's ground truth is calibrated against the FP32
// reference model so that the model's measured quality lands near the paper's
// published reference quality, which makes the per-task quality targets
// meaningful (Section III-B).
func BuildNative(task core.Task, opts BuildOptions) (*Assembly, error) {
	opts.normalize()
	spec, err := core.Spec(task)
	if err != nil {
		return nil, err
	}

	a := &Assembly{Spec: spec}
	switch spec.ReferenceModel {
	case model.ResNet50, model.MobileNetV1:
		err = a.buildClassification(spec, opts)
	case model.SSDResNet34, model.SSDMobileNet:
		err = a.buildDetection(spec, opts)
	case model.GNMT:
		err = a.buildTranslation(spec, opts)
	default:
		err = fmt.Errorf("harness: task %s uses unsupported model %s", task, spec.ReferenceModel)
	}
	if err != nil {
		return nil, err
	}
	a.QualityTarget = spec.QualityTarget(a.ReferenceQuality)
	return a, nil
}

// buildClassification assembles the two image-classification tasks.
func (a *Assembly) buildClassification(spec core.TaskSpec, opts BuildOptions) error {
	cfg := model.ClassifierConfig{Classes: opts.Classes, ImageSize: opts.ImageSize, Seed: opts.Seed}
	var (
		classifier *model.ImageClassifier
		err        error
	)
	if spec.ReferenceModel == model.ResNet50 {
		classifier, err = model.NewResNet50Mini(cfg)
	} else {
		classifier, err = model.NewMobileNetV1Mini(cfg)
	}
	if err != nil {
		return err
	}
	a.Info = classifier.Info()
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Name: spec.DatasetName, Samples: opts.DatasetSamples, Classes: opts.Classes,
		Channels: 3, Height: opts.ImageSize, Width: opts.ImageSize, Seed: opts.Seed + 1,
	})
	if err != nil {
		return err
	}

	// Establish the FP32 reference quality by oracle relabeling.
	info, err := model.Describe(spec.ReferenceModel)
	if err != nil {
		return err
	}
	reference, err := calibrateClassification(classifier, ds, info.PaperReferenceQuality, opts.Seed+2, opts.Classes)
	if err != nil {
		return err
	}
	a.ReferenceQuality = reference

	if err := a.maybeQuantize(classifier, ds, opts); err != nil {
		return err
	}

	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		return err
	}
	sut, err := backend.NewNative(backend.NativeConfig{
		Name: string(spec.ReferenceModel), Engine: classifier, Store: qsl, Workers: opts.Workers,
	})
	if err != nil {
		return err
	}
	a.Dataset, a.QSL, a.SUT, a.Engine, a.observed = ds, qsl, sut, classifier, sut
	return nil
}

// buildDetection assembles the two object-detection tasks.
func (a *Assembly) buildDetection(spec core.TaskSpec, opts BuildOptions) error {
	cfg := model.DetectorConfig{Classes: opts.Classes, ImageSize: opts.ImageSize, Seed: opts.Seed, ScoreThreshold: 0.2}
	var (
		detector *model.SSDDetector
		err      error
	)
	if spec.ReferenceModel == model.SSDResNet34 {
		detector, err = model.NewSSDResNet34Mini(cfg)
	} else {
		detector, err = model.NewSSDMobileNetMini(cfg)
	}
	if err != nil {
		return err
	}
	a.Info = detector.Info()
	ds, err := dataset.NewSyntheticDetection(dataset.ImageConfig{
		Name: spec.DatasetName, Samples: opts.DatasetSamples, Classes: opts.Classes,
		Channels: 3, Height: opts.ImageSize, Width: opts.ImageSize, Seed: opts.Seed + 1,
	})
	if err != nil {
		return err
	}
	info, err := model.Describe(spec.ReferenceModel)
	if err != nil {
		return err
	}
	reference, err := calibrateDetection(detector, ds, info.PaperReferenceQuality, opts.Seed+2)
	if err != nil {
		return err
	}
	a.ReferenceQuality = reference

	if err := a.maybeQuantize(detector, ds, opts); err != nil {
		return err
	}

	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		return err
	}
	sut, err := backend.NewNative(backend.NativeConfig{
		Name: string(spec.ReferenceModel), Engine: detector, Store: qsl, Workers: opts.Workers,
	})
	if err != nil {
		return err
	}
	a.Dataset, a.QSL, a.SUT, a.Engine, a.observed = ds, qsl, sut, detector, sut
	return nil
}

// buildTranslation assembles the machine-translation task.
func (a *Assembly) buildTranslation(spec core.TaskSpec, opts BuildOptions) error {
	translator, err := model.NewGNMTMini(model.TranslatorConfig{Vocab: opts.Vocab, Seed: opts.Seed})
	if err != nil {
		return err
	}
	a.Info = translator.Info()
	ds, err := dataset.NewSyntheticText(dataset.TextConfig{
		Name: spec.DatasetName, Samples: opts.DatasetSamples, Vocab: opts.Vocab, Seed: opts.Seed + 1,
	})
	if err != nil {
		return err
	}
	info, err := model.Describe(spec.ReferenceModel)
	if err != nil {
		return err
	}
	reference, err := calibrateTranslation(translator, ds, info.PaperReferenceQuality/100, opts.Seed+2)
	if err != nil {
		return err
	}
	a.ReferenceQuality = reference

	if err := a.maybeQuantize(translator, ds, opts); err != nil {
		return err
	}

	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		return err
	}
	sut, err := backend.NewNative(backend.NativeConfig{
		Name: string(spec.ReferenceModel), Engine: translator, Store: qsl, Workers: opts.Workers,
	})
	if err != nil {
		return err
	}
	a.Dataset, a.QSL, a.SUT, a.Engine, a.observed = ds, qsl, sut, translator, sut
	return nil
}

// maybeQuantize converts the model weights after the FP32 reference quality
// has been measured, mirroring the closed division's calibration-based
// post-training quantization.
func (a *Assembly) maybeQuantize(m model.WeightedModel, ds dataset.Dataset, opts BuildOptions) error {
	if opts.Quantization == "" || opts.Quantization == quantize.FP32 {
		return nil
	}
	if !quantize.Valid(opts.Quantization) {
		return fmt.Errorf("harness: format %q is not on the approved numerics list", opts.Quantization)
	}
	if _, err := dataset.CalibrationSet(ds, opts.CalibrationSamples); err != nil {
		return err
	}
	statsList, err := quantize.Model(m.Weights(), opts.Quantization)
	if err != nil {
		return err
	}
	a.QuantizationStats = statsList
	return nil
}

// predictAll runs the reference model over the whole data set as one
// Engine.Predict call — the same path every SUT serves from — and returns the
// samples alongside their predictions.
func predictAll(e model.Engine, ds dataset.Dataset) ([]*dataset.Sample, []model.Output, error) {
	samples := make([]*dataset.Sample, ds.Size())
	for i := range samples {
		sample, err := ds.Sample(i)
		if err != nil {
			return nil, nil, err
		}
		samples[i] = sample
	}
	outputs, err := e.Predict(samples, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: calibrating %s: %w", ds.Name(), err)
	}
	return samples, outputs, nil
}

// calibrateClassification relabels the data set so that the classifier's
// predictions match ground truth for approximately the agreement fraction,
// then returns the measured Top-1 accuracy.
func calibrateClassification(e model.Engine, ds *dataset.SyntheticImages, agreement float64, seed uint64, classes int) (float64, error) {
	_, outputs, err := predictAll(e, ds)
	if err != nil {
		return 0, err
	}
	rng := stats.NewRNG(seed)
	preds := make([]int, len(outputs))
	labels := make([]int, len(outputs))
	for i, out := range outputs {
		pred := out.Class
		label := pred
		if rng.Float64() >= agreement {
			// Assign a deliberately different label so the model misses it.
			label = (pred + 1 + rng.Intn(classes-1)) % classes
		}
		if err := ds.SetLabel(i, label); err != nil {
			return 0, err
		}
		preds[i], labels[i] = pred, label
	}
	return metrics.Top1Accuracy(preds, labels)
}

// calibrateDetection sets the ground-truth boxes to the detector's own output
// for approximately the agreement fraction of samples and returns the
// measured mAP.
func calibrateDetection(e model.Engine, ds *dataset.SyntheticDetection, agreement float64, seed uint64) (float64, error) {
	samples, outputs, err := predictAll(e, ds)
	if err != nil {
		return 0, err
	}
	rng := stats.NewRNG(seed)
	dets := make([]metrics.Detection, len(outputs))
	truths := make([]metrics.GroundTruth, len(outputs))
	for i, out := range outputs {
		truth := samples[i].Boxes
		if rng.Float64() < agreement && len(out.Boxes) > 0 {
			truth = append([]metrics.Box(nil), out.Boxes...)
			if err := ds.SetBoxes(i, truth); err != nil {
				return 0, err
			}
		}
		dets[i] = metrics.Detection{SampleIndex: i, Boxes: out.Boxes}
		truths[i] = metrics.GroundTruth{SampleIndex: i, Boxes: truth}
	}
	return metrics.MeanAveragePrecision(dets, truths, 0.5)
}

// calibrateTranslation sets the reference translation to the translator's own
// output for approximately the agreement fraction of sentences and returns
// the measured corpus BLEU.
func calibrateTranslation(e model.Engine, ds *dataset.SyntheticText, agreement float64, seed uint64) (float64, error) {
	samples, outputs, err := predictAll(e, ds)
	if err != nil {
		return 0, err
	}
	rng := stats.NewRNG(seed)
	hyps := make([][]int, len(outputs))
	refs := make([][]int, len(outputs))
	for i, out := range outputs {
		ref := samples[i].RefTokens
		if rng.Float64() < agreement && len(out.Tokens) > 0 {
			ref = append([]int(nil), out.Tokens...)
			if err := ds.SetReference(i, ref); err != nil {
				return 0, err
			}
		}
		hyps[i], refs[i] = out.Tokens, ref
	}
	return metrics.CorpusBLEU(hyps, refs)
}

// ScoreAccuracyLog runs the accuracy script over an accuracy-mode result for
// this assembly.
func (a *Assembly) ScoreAccuracyLog(log []loadgen.AccuracyEntry) (accuracy.Report, error) {
	return accuracy.Check(log, a.Dataset, a.ReferenceQuality, a.QualityTarget)
}
