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
	m, err := model.New(spec.ReferenceModel, model.Config{
		Classes: opts.Classes, ImageSize: opts.ImageSize, Vocab: opts.Vocab, Seed: opts.Seed, ScoreThreshold: 0.2,
	})
	if err != nil {
		return nil, err
	}

	var ds dataset.Dataset
	images := dataset.ImageConfig{
		Name: spec.DatasetName, Samples: opts.DatasetSamples, Classes: opts.Classes,
		Channels: 3, Height: opts.ImageSize, Width: opts.ImageSize, Seed: opts.Seed + 1,
	}
	switch m.Kind() {
	case dataset.KindImageClassification:
		ds, err = dataset.NewSyntheticImages(images)
	case dataset.KindObjectDetection:
		ds, err = dataset.NewSyntheticDetection(images)
	default:
		ds, err = dataset.NewSyntheticText(dataset.TextConfig{
			Name: spec.DatasetName, Samples: opts.DatasetSamples, Vocab: opts.Vocab, Seed: opts.Seed + 1,
		})
	}
	if err != nil {
		return nil, err
	}

	a := &Assembly{Spec: spec, Info: m.Info(), Dataset: ds, Engine: m}
	agreement := a.Info.PaperReferenceQuality
	if m.Kind() == dataset.KindTranslation {
		agreement /= 100 // BLEU points
	}
	if a.ReferenceQuality, err = calibrate(m, ds, agreement, opts.Seed+2, opts.Classes); err != nil {
		return nil, err
	}
	a.QualityTarget = spec.QualityTarget(a.ReferenceQuality)
	if err := a.maybeQuantize(m, ds, opts); err != nil {
		return nil, err
	}

	if a.QSL, err = dataset.NewQSL(ds); err != nil {
		return nil, err
	}
	sut, err := backend.NewNative(backend.NativeConfig{
		Name: string(spec.ReferenceModel), Engine: m, Store: a.QSL, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	a.SUT, a.observed = sut, sut
	return a, nil
}

// maybeQuantize converts the model weights after the FP32 reference quality
// has been measured, mirroring the closed division's calibration-based
// post-training quantization.
func (a *Assembly) maybeQuantize(m model.Model, ds dataset.Dataset, opts BuildOptions) error {
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

// calibrate runs the reference model over the whole data set as one
// Engine.Predict call — the same path every SUT serves from — and relabels
// the ground truth so the model agrees with it on about the agreement
// fraction of samples: a classification label is moved off the prediction
// otherwise, a detection's boxes or a translation's reference are replaced
// by the model's own output. It then scores the outputs with the accuracy
// script, the same rule that judges a submission, and returns the measured
// quality.
func calibrate(m model.Engine, ds dataset.Dataset, agreement float64, seed uint64, classes int) (float64, error) {
	samples := make([]*dataset.Sample, ds.Size())
	for i := range samples {
		sample, err := ds.Sample(i)
		if err != nil {
			return 0, err
		}
		samples[i] = sample
	}
	outputs, err := m.Predict(samples, nil)
	if err != nil {
		return 0, fmt.Errorf("harness: calibrating %s: %w", ds.Name(), err)
	}
	rng := stats.NewRNG(seed)
	log := make([]loadgen.AccuracyEntry, len(outputs))
	for i, out := range outputs {
		agree := rng.Float64() < agreement
		switch d := ds.(type) {
		case *dataset.SyntheticImages:
			label := out.Class
			if !agree {
				// A deliberately different label, so the model misses it.
				label = (out.Class + 1 + rng.Intn(classes-1)) % classes
			}
			err = d.SetLabel(i, label)
		case *dataset.SyntheticDetection:
			if agree && len(out.Boxes) > 0 {
				err = d.SetBoxes(i, append([]metrics.Box(nil), out.Boxes...))
			}
		case *dataset.SyntheticText:
			if agree && len(out.Tokens) > 0 {
				err = d.SetReference(i, append([]int(nil), out.Tokens...))
			}
		}
		if err != nil {
			return 0, err
		}
		if log[i].Data, err = out.Encode(); err != nil {
			return 0, err
		}
		log[i].SampleIndex = i
	}
	report, err := accuracy.Check(log, ds, 0, 0)
	return report.Value, err
}

// ScoreAccuracyLog runs the accuracy script over an accuracy-mode result for
// this assembly.
func (a *Assembly) ScoreAccuracyLog(log []loadgen.AccuracyEntry) (accuracy.Report, error) {
	return accuracy.Check(log, a.Dataset, a.ReferenceQuality, a.QualityTarget)
}
