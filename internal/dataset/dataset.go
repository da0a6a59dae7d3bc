// Package dataset provides the synthetic data sets and the query sample
// library (QSL) abstraction of the benchmark. The paper's tasks use ImageNet,
// COCO and WMT16; those are substituted with deterministic synthetic
// generators that preserve the benchmark-relevant behaviour: samples are
// addressed by index, loaded into memory as an untimed operation before the
// run, swept completely in accuracy mode, and scored with the same metrics
// (Top-1, mAP, BLEU).
package dataset

import (
	"fmt"

	"mlperf/internal/metrics"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// Kind identifies the payload a sample carries.
type Kind int

const (
	// KindImageClassification samples carry an image and a class label.
	KindImageClassification Kind = iota
	// KindObjectDetection samples carry an image and ground-truth boxes.
	KindObjectDetection
	// KindTranslation samples carry source tokens and reference target tokens.
	KindTranslation
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindImageClassification:
		return "image-classification"
	case KindObjectDetection:
		return "object-detection"
	case KindTranslation:
		return "translation"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Sample is one element of a data set.
type Sample struct {
	Index     int
	Image     *tensor.Tensor // vision tasks (CHW)
	Label     int            // classification ground truth
	Boxes     []metrics.Box  // detection ground truth
	Tokens    []int          // translation source
	RefTokens []int          // translation reference
}

// Store provides resident samples by index to whatever runs inference on
// them (backend.Native, serve.Server); QSL satisfies it.
type Store interface {
	Get(index int) (*Sample, error)
}

// Dataset is an indexed collection of samples with known ground truth.
type Dataset interface {
	// Name returns the data set's identifier (e.g. "synthetic-imagenet").
	Name() string
	// Kind returns the task family the samples belong to.
	Kind() Kind
	// Size returns the total number of samples.
	Size() int
	// Sample returns the i-th sample.
	Sample(i int) (*Sample, error)
	// PerformanceSampleCount returns how many samples the LoadGen should ask
	// the SUT to keep resident during performance mode (the QSL's
	// "performance sample count" in the C++ LoadGen).
	PerformanceSampleCount() int
}

// ImageConfig configures a synthetic vision data set.
type ImageConfig struct {
	Name         string
	Samples      int
	Classes      int
	Channels     int
	Height       int
	Width        int
	MaxBoxes     int // detection only: maximum ground-truth boxes per image
	Seed         uint64
	PerfSamples  int // performance sample count; defaults to min(Samples, 1024)
	ImageStdDev  float64
	ClassSignal  float64 // strength of the class-dependent planted signal
	BoxClassBase int     // detection only: first class id used for boxes
}

func (c *ImageConfig) normalize() error {
	if c.Samples <= 0 {
		return fmt.Errorf("dataset: sample count must be positive, got %d", c.Samples)
	}
	if c.Classes <= 1 {
		return fmt.Errorf("dataset: need at least 2 classes, got %d", c.Classes)
	}
	if c.Channels <= 0 || c.Height <= 0 || c.Width <= 0 {
		return fmt.Errorf("dataset: image dimensions must be positive: %dx%dx%d", c.Channels, c.Height, c.Width)
	}
	if c.PerfSamples <= 0 {
		c.PerfSamples = c.Samples
		if c.PerfSamples > 1024 {
			c.PerfSamples = 1024
		}
	}
	if c.PerfSamples > c.Samples {
		c.PerfSamples = c.Samples
	}
	if c.ImageStdDev <= 0 {
		c.ImageStdDev = 1
	}
	if c.ClassSignal <= 0 {
		c.ClassSignal = 2
	}
	if c.MaxBoxes <= 0 {
		c.MaxBoxes = 4
	}
	return nil
}

// SyntheticImages is an in-memory synthetic image-classification data set.
// Each image is Gaussian noise plus a class-dependent planted pattern so that
// trained-free reference models still expose a deterministic relationship
// between inputs and predictions.
type SyntheticImages struct {
	name        string
	samples     []*Sample
	classes     int
	perfSamples int
}

// NewSyntheticImages builds the data set eagerly and deterministically from
// the seed in cfg.
func NewSyntheticImages(cfg ImageConfig) (*SyntheticImages, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "synthetic-imagenet"
	}
	rng := stats.NewRNG(cfg.Seed)
	ds := &SyntheticImages{name: cfg.Name, classes: cfg.Classes, perfSamples: cfg.PerfSamples}
	for i := 0; i < cfg.Samples; i++ {
		label := rng.Intn(cfg.Classes)
		img := tensor.MustNew(cfg.Channels, cfg.Height, cfg.Width)
		data := img.Data()
		for j := range data {
			data[j] = float32(rng.NormFloat64() * cfg.ImageStdDev)
		}
		plantClassSignal(img, label, cfg.Classes, float32(cfg.ClassSignal))
		ds.samples = append(ds.samples, &Sample{Index: i, Image: img, Label: label})
	}
	return ds, nil
}

// plantClassSignal adds a label-dependent offset pattern to the image so that
// the class is in principle recoverable from the pixels.
func plantClassSignal(img *tensor.Tensor, label, classes int, strength float32) {
	data := img.Data()
	n := len(data)
	if n == 0 || classes <= 0 {
		return
	}
	// Offset a label-specific stripe of the image.
	stripe := n / classes
	if stripe == 0 {
		stripe = 1
	}
	start := (label * stripe) % n
	end := start + stripe
	if end > n {
		end = n
	}
	for i := start; i < end; i++ {
		data[i] += strength
	}
}

// Name implements Dataset.
func (d *SyntheticImages) Name() string { return d.name }

// Kind implements Dataset.
func (d *SyntheticImages) Kind() Kind { return KindImageClassification }

// Size implements Dataset.
func (d *SyntheticImages) Size() int { return len(d.samples) }

// Classes returns the number of classes.
func (d *SyntheticImages) Classes() int { return d.classes }

// PerformanceSampleCount implements Dataset.
func (d *SyntheticImages) PerformanceSampleCount() int { return d.perfSamples }

// Sample implements Dataset.
func (d *SyntheticImages) Sample(i int) (*Sample, error) {
	if i < 0 || i >= len(d.samples) {
		return nil, fmt.Errorf("dataset %s: sample index %d out of range [0,%d)", d.name, i, len(d.samples))
	}
	return d.samples[i], nil
}

// SetLabel overrides the ground-truth label of sample i. It is used by the
// oracle relabeling step that establishes the reference model's accuracy.
func (d *SyntheticImages) SetLabel(i, label int) error {
	if i < 0 || i >= len(d.samples) {
		return fmt.Errorf("dataset %s: sample index %d out of range", d.name, i)
	}
	if label < 0 || label >= d.classes {
		return fmt.Errorf("dataset %s: label %d outside [0,%d)", d.name, label, d.classes)
	}
	d.samples[i].Label = label
	return nil
}

// SyntheticDetection is an in-memory synthetic object-detection data set.
type SyntheticDetection struct {
	name        string
	samples     []*Sample
	classes     int
	perfSamples int
}

// NewSyntheticDetection builds a detection data set with 1..MaxBoxes
// annotated boxes per image.
func NewSyntheticDetection(cfg ImageConfig) (*SyntheticDetection, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "synthetic-coco"
	}
	rng := stats.NewRNG(cfg.Seed)
	ds := &SyntheticDetection{name: cfg.Name, classes: cfg.Classes, perfSamples: cfg.PerfSamples}
	for i := 0; i < cfg.Samples; i++ {
		img := tensor.MustNew(cfg.Channels, cfg.Height, cfg.Width)
		data := img.Data()
		for j := range data {
			data[j] = float32(rng.NormFloat64() * cfg.ImageStdDev)
		}
		nBoxes := 1 + rng.Intn(cfg.MaxBoxes)
		boxes := make([]metrics.Box, 0, nBoxes)
		for b := 0; b < nBoxes; b++ {
			x1 := rng.Float64() * 0.7
			y1 := rng.Float64() * 0.7
			w := 0.1 + rng.Float64()*0.25
			h := 0.1 + rng.Float64()*0.25
			boxes = append(boxes, metrics.Box{
				X1: x1, Y1: y1, X2: minFloat(x1+w, 1), Y2: minFloat(y1+h, 1),
				Class: cfg.BoxClassBase + rng.Intn(cfg.Classes),
			})
		}
		ds.samples = append(ds.samples, &Sample{Index: i, Image: img, Boxes: boxes})
	}
	return ds, nil
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Name implements Dataset.
func (d *SyntheticDetection) Name() string { return d.name }

// Kind implements Dataset.
func (d *SyntheticDetection) Kind() Kind { return KindObjectDetection }

// Size implements Dataset.
func (d *SyntheticDetection) Size() int { return len(d.samples) }

// Classes returns the number of object classes.
func (d *SyntheticDetection) Classes() int { return d.classes }

// PerformanceSampleCount implements Dataset.
func (d *SyntheticDetection) PerformanceSampleCount() int { return d.perfSamples }

// Sample implements Dataset.
func (d *SyntheticDetection) Sample(i int) (*Sample, error) {
	if i < 0 || i >= len(d.samples) {
		return nil, fmt.Errorf("dataset %s: sample index %d out of range [0,%d)", d.name, i, len(d.samples))
	}
	return d.samples[i], nil
}

// SetBoxes overrides the ground-truth boxes of sample i (oracle relabeling).
func (d *SyntheticDetection) SetBoxes(i int, boxes []metrics.Box) error {
	if i < 0 || i >= len(d.samples) {
		return fmt.Errorf("dataset %s: sample index %d out of range", d.name, i)
	}
	d.samples[i].Boxes = boxes
	return nil
}

// TextConfig configures a synthetic translation data set.
type TextConfig struct {
	Name        string
	Samples     int
	Vocab       int
	MinLen      int
	MaxLen      int
	Seed        uint64
	PerfSamples int
}

func (c *TextConfig) normalize() error {
	if c.Samples <= 0 {
		return fmt.Errorf("dataset: sample count must be positive, got %d", c.Samples)
	}
	if c.Vocab < 8 {
		return fmt.Errorf("dataset: vocabulary must hold at least 8 tokens, got %d", c.Vocab)
	}
	if c.MinLen <= 0 {
		c.MinLen = 4
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = c.MinLen + 8
	}
	if c.PerfSamples <= 0 || c.PerfSamples > c.Samples {
		c.PerfSamples = c.Samples
	}
	return nil
}

// SyntheticText is an in-memory synthetic translation data set. Reference
// translations default to a deterministic token-wise transformation of the
// source sentence and can be overridden by oracle relabeling.
type SyntheticText struct {
	name        string
	samples     []*Sample
	vocab       int
	perfSamples int
}

// NewSyntheticText builds the data set deterministically from cfg.Seed.
func NewSyntheticText(cfg TextConfig) (*SyntheticText, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "synthetic-wmt16"
	}
	rng := stats.NewRNG(cfg.Seed)
	ds := &SyntheticText{name: cfg.Name, vocab: cfg.Vocab, perfSamples: cfg.PerfSamples}
	for i := 0; i < cfg.Samples; i++ {
		n := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
		src := make([]int, n)
		ref := make([]int, n)
		for j := range src {
			// Reserve tokens 0 and 1 for BOS/EOS in downstream models.
			src[j] = 2 + rng.Intn(cfg.Vocab-2)
			ref[j] = 2 + (src[j]+7)%(cfg.Vocab-2)
		}
		ds.samples = append(ds.samples, &Sample{Index: i, Tokens: src, RefTokens: ref})
	}
	return ds, nil
}

// Name implements Dataset.
func (d *SyntheticText) Name() string { return d.name }

// Kind implements Dataset.
func (d *SyntheticText) Kind() Kind { return KindTranslation }

// Size implements Dataset.
func (d *SyntheticText) Size() int { return len(d.samples) }

// Vocab returns the vocabulary size.
func (d *SyntheticText) Vocab() int { return d.vocab }

// PerformanceSampleCount implements Dataset.
func (d *SyntheticText) PerformanceSampleCount() int { return d.perfSamples }

// Sample implements Dataset.
func (d *SyntheticText) Sample(i int) (*Sample, error) {
	if i < 0 || i >= len(d.samples) {
		return nil, fmt.Errorf("dataset %s: sample index %d out of range [0,%d)", d.name, i, len(d.samples))
	}
	return d.samples[i], nil
}

// SetReference overrides the reference translation of sample i (oracle
// relabeling).
func (d *SyntheticText) SetReference(i int, ref []int) error {
	if i < 0 || i >= len(d.samples) {
		return fmt.Errorf("dataset %s: sample index %d out of range", d.name, i)
	}
	d.samples[i].RefTokens = ref
	return nil
}

// CalibrationSet returns the first n sample indices of the data set; MLPerf
// publishes a small fixed calibration list per reference model for
// quantization (Section IV-A), and using a stable prefix mirrors that.
func CalibrationSet(d Dataset, n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: calibration size must be positive, got %d", n)
	}
	if n > d.Size() {
		n = d.Size()
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out, nil
}
