package model

import (
	"fmt"

	"mlperf/internal/dataset"
	"mlperf/internal/metrics"
	"mlperf/internal/nn"
	"mlperf/internal/payload"
	"mlperf/internal/tensor"
)

// Engine is the single inference contract between the model zoo and every
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
// up to the cap — replacing the old fixed micro-batch of 8. With a nil
// Scratch the pooled arena is recycled per micro-batch, so memory stays
// O(micro-batch); a caller-provided arena cannot be reset mid-call and grows
// with the whole query (the caller owns its lifecycle). Grouping does not
// change results: Predict on any batch is bit-identical to per-sample calls,
// so it is bit-identical under any grouping too.

// microBatchCap bounds the derived size: beyond it the batched GEMMs'
// weight-streaming amortization has flattened and response latency within a
// merged query starts to dominate. The cache budget dividing the footprint is
// no longer a constant — see cachebudget.go for the probe/override chain.
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

// Name implements Engine.
func (m *ImageClassifier) Name() string { return string(m.info.Name) }

// Kind implements Engine.
func (m *ImageClassifier) Kind() dataset.Kind { return dataset.KindImageClassification }

// PreferredBatch implements BatchSizer: the micro-batch derived from the
// backbone's per-sample activation footprint and the LIVE cache budget —
// derived per call, not frozen at construction, so calibration or a
// SetMicroBatchCacheBudget override reaches engines that already exist.
func (m *ImageClassifier) PreferredBatch() int { return microBatchFor(m.footprint) }

// Predict implements Engine: each micro-batch runs as one im2col+GEMM per
// convolution layer and one GEMM through the classifier head.
func (m *ImageClassifier) Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]Output, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	outputs := make([]Output, len(samples))
	err := inMicroBatches(len(samples), m.PreferredBatch(), func(start, end int) error {
		group := samples[start:end]
		return withScratch(s, func(s *tensor.Scratch) error {
			batch, err := stackImages(m.info.Name, m.inShape, group, s)
			if err != nil {
				return err
			}
			logits, err := m.net.Forward(batch, s)
			if err != nil {
				return err
			}
			if logits.Rank() != 2 || logits.Dim(1) != len(group) {
				return fmt.Errorf("model %s: batched head produced %v, want [classes %d]", m.info.Name, logits.Shape(), len(group))
			}
			for i := range group {
				class, err := tensor.ColumnArgMax(logits, i)
				if err != nil {
					return err
				}
				outputs[start+i] = Output{Kind: dataset.KindImageClassification, Class: class}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}

// Name implements Engine.
func (d *SSDDetector) Name() string { return string(d.info.Name) }

// Kind implements Engine.
func (d *SSDDetector) Kind() dataset.Kind { return dataset.KindObjectDetection }

// PreferredBatch implements BatchSizer (live-derived; see ImageClassifier).
func (d *SSDDetector) PreferredBatch() int { return microBatchFor(d.footprint) }

// Predict implements Engine: backbone and head each run once over every
// micro-batch; only the box decode (threshold + NMS) runs per sample.
func (d *SSDDetector) Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]Output, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	outputs := make([]Output, len(samples))
	err := inMicroBatches(len(samples), d.PreferredBatch(), func(start, end int) error {
		group := samples[start:end]
		return withScratch(s, func(s *tensor.Scratch) error {
			batch, err := stackImages(d.info.Name, d.inShape, group, s)
			if err != nil {
				return err
			}
			features, err := d.backbone.Forward(batch, s)
			if err != nil {
				return err
			}
			raw, err := d.head.Forward(features, s)
			if err != nil {
				return err
			}
			if raw.Rank() != 4 {
				return fmt.Errorf("model %s: batched head produced %v, want [perCell N H W]", d.info.Name, raw.Shape())
			}
			// Gather each sample's CHW head output out of the channel-major
			// batch for the per-sample decode (threshold + NMS).
			sampleRaw := s.Tensor(raw.Dim(0), raw.Dim(2), raw.Dim(3))
			for i := range group {
				if err := tensor.UnpackSample(sampleRaw, raw, i); err != nil {
					return err
				}
				boxes, err := d.decode(sampleRaw)
				if err != nil {
					return err
				}
				outputs[start+i] = Output{Kind: dataset.KindObjectDetection, Boxes: boxes}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}

// Name implements Engine.
func (g *GNMTMini) Name() string { return string(g.info.Name) }

// Kind implements Engine.
func (g *GNMTMini) Kind() dataset.Kind { return dataset.KindTranslation }

// PreferredBatch implements BatchSizer: the recurrent step state per sentence
// is tiny, so the translator batches up to the cap (live-derived; see
// ImageClassifier).
func (g *GNMTMini) PreferredBatch() int { return microBatchFor(g.footprint) }

// Predict implements Engine. Each micro-batch decodes as one greedy pass:
// every recurrent step runs the active sentences through one GEMM per weight
// matrix, with finished sentences compacting out of the batch
// (nn.Seq2Seq.TranslateBatch). Ragged decoding lengths therefore cost only
// the steps they use, and a sentence's tokens do not depend on its batch.
func (g *GNMTMini) Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]Output, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	outputs := make([]Output, len(samples))
	err := inMicroBatches(len(samples), g.PreferredBatch(), func(start, end int) error {
		group := samples[start:end]
		srcs := make([][]int, len(group))
		for i, sample := range group {
			if sample == nil || sample.Tokens == nil {
				return fmt.Errorf("model %s: sample %d carries no tokens", g.info.Name, start+i)
			}
			srcs[i] = sample.Tokens
		}
		return withScratch(s, func(s *tensor.Scratch) error {
			translated, err := g.net.TranslateBatch(srcs, s)
			if err != nil {
				return err
			}
			for i, tokens := range translated {
				outputs[start+i] = Output{Kind: dataset.KindTranslation, Tokens: tokens}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}
