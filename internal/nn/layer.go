// Package nn implements the neural-network layers and containers used to
// build the miniature reference models of the benchmark suite (residual CNNs,
// depthwise-separable CNNs, SSD detection heads and a recurrent
// encoder–decoder). There is one way to run a layer: Forward takes a
// channel-major batch — rank-4 [C, N, H, W] for spatial activations, rank-2
// [F, N] for vectors — and runs it as one (or a small constant number of)
// kernel invocations, with every intermediate drawn from the caller's
// tensor.Scratch arena. One sample is a batch with N = 1, not a separate code
// path, and a batch of N is bit-identical to N batches of one: the benchmark
// leaves batching to the submitter (Section IV-A), and here it is a pure
// scheduling decision. The package's tests hold every layer to a naive
// per-sample reference forward (reference_test.go).
//
// The recurrent stack follows the same rule: LSTMCell.StepBatch advances N
// sequences as one matrix step (states stacked feature-major [H, N], one
// packed GEMM per weight matrix with the gate nonlinearities fused in the
// epilogue), Embedding.LookupBatch gathers a token batch into [Dim, N], and
// Seq2Seq.TranslateBatch runs greedy decoding with an active-sentence mask:
// ragged sentences drop out of the encoder batch as their prefixes end and
// out of the decoder batch the step they emit EOS, so per-step cost shrinks
// as sentences terminate. See rnn_batch.go for the layout and compaction
// contract.
package nn

import (
	"fmt"

	"mlperf/internal/tensor"
)

// Layer is a single differentiable-free inference operator.
type Layer interface {
	// Name returns a short human-readable identifier for logs and errors.
	Name() string
	// Forward runs the layer on a channel-major batch ([C, N, H, W] or
	// [F, N]; see the layout discussion in internal/tensor/batched.go — a
	// convolution's output GEMM lands directly in the next layer's input
	// layout). Intermediates and the result come from s, which must be
	// non-nil: the result is invalidated by the arena's next Reset and must
	// be copied out if it outlives the pass. Column n of the result is
	// bit-identical whatever the batch around it, which is what lets the
	// dynamic batcher merge queries without perturbing accuracy-mode results.
	Forward(x *tensor.Tensor, s *tensor.Scratch) (*tensor.Tensor, error)
	// OutputShape returns the layer's per-sample output shape for the given
	// per-sample input shape (CHW or a vector length) without running it.
	OutputShape(in []int) ([]int, error)
	// ParamCount returns the number of learned parameters.
	ParamCount() int64
	// Ops returns the number of multiply-accumulate-equivalent operations the
	// layer performs on one sample of the given shape. It is used to reproduce
	// the GOPs-per-input figures of Table I.
	Ops(in []int) (int64, error)
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential returns an empty sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Add appends layers to the container and returns it for chaining.
func (s *Sequential) Add(layers ...Layer) *Sequential {
	s.layers = append(s.layers, layers...)
	return s
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Layers returns the contained layers in execution order.
func (s *Sequential) Layers() []Layer { return s.layers }

// Forward implements Layer by running every contained layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, sc *tensor.Scratch) (*tensor.Tensor, error) {
	cur := x
	for _, l := range s.layers {
		out, err := l.Forward(cur, sc)
		if err != nil {
			return nil, fmt.Errorf("nn: %s/%s: %w", s.name, l.Name(), err)
		}
		cur = out
	}
	return cur, nil
}

// OutputShape implements Layer.
func (s *Sequential) OutputShape(in []int) ([]int, error) {
	cur := in
	for _, l := range s.layers {
		out, err := l.OutputShape(cur)
		if err != nil {
			return nil, fmt.Errorf("nn: %s/%s: %w", s.name, l.Name(), err)
		}
		cur = out
	}
	return cur, nil
}

// ParamCount implements Layer.
func (s *Sequential) ParamCount() int64 {
	var total int64
	for _, l := range s.layers {
		total += l.ParamCount()
	}
	return total
}

// Ops implements Layer.
func (s *Sequential) Ops(in []int) (int64, error) {
	cur := in
	var total int64
	for _, l := range s.layers {
		ops, err := l.Ops(cur)
		if err != nil {
			return 0, fmt.Errorf("nn: %s/%s: %w", s.name, l.Name(), err)
		}
		total += ops
		out, err := l.OutputShape(cur)
		if err != nil {
			return 0, err
		}
		cur = out
	}
	return total, nil
}

// Residual wraps a body whose output is added to its input (identity
// shortcut), the building block of ResNet-style models. The body's output
// shape must equal its input shape.
type Residual struct {
	name string
	body Layer
}

// NewResidual returns a residual block around body.
func NewResidual(name string, body Layer) *Residual {
	return &Residual{name: name, body: body}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Body returns the wrapped layer, e.g. for weight enumeration.
func (r *Residual) Body() Layer { return r.body }

// Forward implements Layer. The element-wise shortcut add and ReLU act
// identically per sample in any layout.
func (r *Residual) Forward(x *tensor.Tensor, sc *tensor.Scratch) (*tensor.Tensor, error) {
	// The body may run in place over its input, so it gets a copy and the
	// original x stays intact for the shortcut add.
	out, err := r.body.Forward(sc.CloneTensor(x), sc)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", r.name, err)
	}
	if !tensor.SameShape(out, x) {
		return nil, fmt.Errorf("nn: %s: residual body changed shape from %v to %v", r.name, x.Shape(), out.Shape())
	}
	// Fused add+ReLU: one pass over the activations instead of two.
	if err := tensor.AddThenReLU(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// OutputShape implements Layer.
func (r *Residual) OutputShape(in []int) ([]int, error) {
	out, err := r.body.OutputShape(in)
	if err != nil {
		return nil, err
	}
	if len(out) != len(in) {
		return nil, fmt.Errorf("nn: %s: residual body rank change", r.name)
	}
	for i := range in {
		if in[i] != out[i] {
			return nil, fmt.Errorf("nn: %s: residual body shape change %v -> %v", r.name, in, out)
		}
	}
	return out, nil
}

// ParamCount implements Layer.
func (r *Residual) ParamCount() int64 { return r.body.ParamCount() }

// Ops implements Layer. The element-wise add and ReLU are counted as one op
// per element.
func (r *Residual) Ops(in []int) (int64, error) {
	ops, err := r.body.Ops(in)
	if err != nil {
		return 0, err
	}
	n := int64(1)
	for _, d := range in {
		n *= int64(d)
	}
	return ops + 2*n, nil
}
