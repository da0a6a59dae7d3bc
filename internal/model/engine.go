package model

import (
	"fmt"

	"mlperf/internal/dataset"
	"mlperf/internal/metrics"
	"mlperf/internal/nn"
	"mlperf/internal/payload"
	"mlperf/internal/tensor"
)

// Engine is the single inference contract between the models and every
// caller. A backend hands an Engine a slice of samples — one for a
// single-stream query, a whole merged query for the server/offline batching
// path — and receives one Output per sample, in order. Implementers must make
// Predict on a batch of N bit-for-bit identical to N Predict calls on batches
// of one (the equivalence tests enforce this, and pin the batch of one to
// golden outputs), so dynamic batching is purely a throughput decision and
// never perturbs accuracy-mode results.
type Engine interface {
	// Name identifies the model (e.g. "resnet50-v1.5") in results.
	Name() string
	// Kind reports the task family the engine serves; backends use it to
	// validate sample payloads and accuracy scripts use it to pick a metric.
	Kind() dataset.Kind
	// Predict runs inference on every sample and returns one Output per
	// sample, in input order. Intermediates are allocated from s when non-nil
	// (the caller owns the arena and must Reset it between passes); a nil s
	// uses a pooled arena internally. Returned Outputs are plain values that
	// do not alias arena memory.
	Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]Output, error)
}

// Output is one tagged prediction. Exactly the field group matching Kind is
// meaningful: Class for image classification, Boxes for object detection,
// Tokens for translation.
type Output struct {
	Kind   dataset.Kind
	Class  int
	Boxes  []metrics.Box
	Tokens []int
}

// Encode serializes the output into the suite's response wire format
// (internal/payload), ready to hand back to the LoadGen.
func (o Output) Encode() ([]byte, error) {
	return o.AppendTo(nil)
}

// AppendTo appends the output's wire encoding to dst and returns the extended
// slice. With sufficient capacity in dst it does not allocate, which is what
// lets the serving response path run entirely on pooled buffers.
func (o Output) AppendTo(dst []byte) ([]byte, error) {
	switch o.Kind {
	case dataset.KindImageClassification:
		return payload.AppendClass(dst, o.Class), nil
	case dataset.KindObjectDetection:
		return payload.AppendBoxes(dst, o.Boxes), nil
	case dataset.KindTranslation:
		return payload.AppendTokens(dst, o.Tokens), nil
	default:
		return nil, fmt.Errorf("model: cannot encode output of kind %v", o.Kind)
	}
}

// stackImages packs the samples' CHW images into one arena-backed
// channel-major [C, N, H, W] batch, validating every image against the
// expected input shape.
func stackImages(name Name, inShape []int, samples []*dataset.Sample, s *tensor.Scratch) (*tensor.Tensor, error) {
	batch := s.Tensor(inShape[0], len(samples), inShape[1], inShape[2])
	for i, sample := range samples {
		if sample == nil || sample.Image == nil {
			return nil, fmt.Errorf("model %s: sample %d carries no image", name, i)
		}
		img := sample.Image
		if img.Rank() != 3 || img.Dim(0) != inShape[0] || img.Dim(1) != inShape[1] || img.Dim(2) != inShape[2] {
			return nil, fmt.Errorf("model %s: sample %d shape %v, want %v", name, i, img.Shape(), inShape)
		}
		if err := tensor.PackSample(batch, img, i); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// withScratch invokes fn with s, or with a pooled arena when s is nil.
func withScratch(s *tensor.Scratch, fn func(*tensor.Scratch) error) error {
	if s == nil {
		s = tensor.GetScratch()
		defer tensor.PutScratch(s)
	}
	return fn(s)
}

// Micro-batch derivation. One batched forward pass carries at most the
// engine's micro-batch worth of samples; larger merged queries are processed
// in micro-batches of that size, keeping the activation working set
// cache-resident instead of scaling with the query. The size is derived per
// engine from its per-sample activation footprint — wide models whose layer
// activations are large batch shallow so a micro-batch still fits in cache,
// while the recurrent translator's tiny per-sentence step state lets it batch
// up to the cap. With a nil Scratch the pooled arena is recycled per
// micro-batch, so memory stays O(micro-batch); a caller-provided arena cannot
// be reset mid-call and grows with the whole query (the caller owns its
// lifecycle). Grouping does not change results: Predict on any batch is
// bit-identical to per-sample calls, so it is bit-identical under any
// grouping too.

// microBatchCap bounds the derived size: beyond it the batched GEMMs'
// weight-streaming amortization has flattened and response latency within a
// merged query starts to dominate. The cache budget dividing the footprint is
// probed from the host — see cachebudget.go for the probe/override chain.
const microBatchCap = 64

// microBatchFor derives a micro-batch size from a per-sample activation
// footprint in bytes.
func microBatchFor(footprintBytes int) int {
	if footprintBytes <= 0 {
		return microBatchCap
	}
	mb := microBatchCacheBudget() / footprintBytes
	if mb < 1 {
		return 1
	}
	if mb > microBatchCap {
		return microBatchCap
	}
	return mb
}

// activationFootprintBytes estimates a layer stack's per-sample activation
// working set: the largest input+output activation pair live at any layer,
// recursing into containers so a composite layer's internal activations
// count too (a residual body runs with the shortcut copy additionally held
// live). It is the denominator of the micro-batch derivation, not an exact
// allocator bound — the scratch arena holds a whole pass, but only the
// current layer's operand pair needs to stay cache-resident for the batched
// kernels to stream well.
func activationFootprintBytes(layers []nn.Layer, inShape []int) (int, error) {
	elems, _, err := peakActivationElems(layers, inShape, 0)
	if err != nil {
		return 0, err
	}
	return 4 * elems, nil
}

// peakActivationElems returns the peak live element count across the layer
// sequence and its output shape. held counts elements pinned by enclosing
// layers for the duration of the sequence (e.g. a residual shortcut).
func peakActivationElems(layers []nn.Layer, inShape []int, held int) (int, []int, error) {
	cur := inShape
	maxElems := 0
	for _, l := range layers {
		var (
			peak int
			out  []int
			err  error
		)
		switch ll := l.(type) {
		case *nn.Sequential:
			peak, out, err = peakActivationElems(ll.Layers(), cur, held)
		case *nn.Residual:
			peak, out, err = peakActivationElems([]nn.Layer{ll.Body()}, cur, held+shapeElems(cur))
		default:
			out, err = l.OutputShape(cur)
			if err == nil {
				peak = held + shapeElems(cur) + shapeElems(out)
			}
		}
		if err != nil {
			return 0, nil, err
		}
		if peak > maxElems {
			maxElems = peak
		}
		cur = out
	}
	return maxElems, cur, nil
}

// shapeElems returns the element count of a shape.
func shapeElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// BatchSizer is implemented by engines that derive a preferred micro-batch
// size from their per-sample activation footprint. Backends use it to size
// inference chunks so batched execution actually reaches the engine's
// micro-batch instead of fragmenting merged queries below it.
type BatchSizer interface {
	// PreferredBatch returns the engine's derived micro-batch size (>= 1).
	PreferredBatch() int
}

// inMicroBatches runs fn over [start, end) windows of at most size samples.
func inMicroBatches(n, size int, fn func(start, end int) error) error {
	if size < 1 {
		size = 1
	}
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		if err := fn(start, end); err != nil {
			return err
		}
	}
	return nil
}

// network is every built model: its metadata, its weights, its per-sample
// activation footprint and the step that runs one micro-batch.
type network struct {
	info      Info
	kind      dataset.Kind
	weights   []*tensor.Tensor
	footprint int // per-sample activation bytes; the micro-batch derives live
	// step runs one micro-batch and writes one Output per sample into out.
	step func(group []*dataset.Sample, out []Output, s *tensor.Scratch) error
}

// Name implements Engine.
func (m *network) Name() string { return string(m.info.Name) }

// Kind implements Engine.
func (m *network) Kind() dataset.Kind { return m.kind }

// Info implements Model.
func (m *network) Info() Info { return m.info }

// Weights implements Model.
func (m *network) Weights() []*tensor.Tensor { return m.weights }

// PreferredBatch implements BatchSizer: the micro-batch derived from the
// per-sample activation footprint and the LIVE cache budget — derived per
// call, not frozen at construction, so calibration or a
// SetMicroBatchCacheBudget override reaches models that already exist.
func (m *network) PreferredBatch() int { return microBatchFor(m.footprint) }

// Predict implements Engine: the samples run through the model's step one
// micro-batch at a time, each on s or on a pooled arena.
func (m *network) Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]Output, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	outputs := make([]Output, len(samples))
	err := inMicroBatches(len(samples), m.PreferredBatch(), func(start, end int) error {
		return withScratch(s, func(s *tensor.Scratch) error {
			return m.step(samples[start:end], outputs[start:end], s)
		})
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}
