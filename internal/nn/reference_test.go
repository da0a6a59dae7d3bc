package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mlperf/internal/tensor"
)

// The naive per-sample reference forward: every layer type, Sequential,
// Residual and the recurrent decoder written as the obvious loops over one
// sample on the heap, in the canonical accumulation order (bias first, then
// taps in ascending channel/row/column order; matrix–vector products from
// zero in ascending k). It shares no code with the batched engine — not the
// tensor kernels, not the layers' Forward — so it is the independent oracle
// the equivalence contract is stated against:
//
//	Forward(batch of N)[n]  ≡  Forward(batch of one: sample n)  ≡  ref(sample n)
//
// (tensor's own *Serial reference kernels live in that package's _test.go
// files, which Go does not let another package import; these are the same
// loops.)

// refForward runs l on one sample: a CHW tensor for spatial layers, a vector
// for the rest.
func refForward(l Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	switch l := l.(type) {
	case *Conv:
		out, err := refConv(x, l.Weights, l.Bias, l.Stride, l.Padding)
		if err != nil {
			return nil, err
		}
		switch {
		case l.Relu6:
			refClamp(out, 6)
		case l.Relu:
			refClamp(out, float32(math.Inf(1)))
		}
		return out, nil
	case *DepthwiseConv:
		out, err := refDepthwise(x, l.Weights, l.Bias, l.Stride, l.Padding)
		if err != nil {
			return nil, err
		}
		refClamp(out, 6)
		return out, nil
	case *Dense:
		if x.Rank() != 1 || x.Dim(0) != l.Weights.Dim(1) {
			return nil, fmt.Errorf("ref dense: input %v", x.Shape())
		}
		out := refMatVec(l.Weights, x)
		for i := range out.Data() {
			out.Data()[i] += l.Bias.Data()[i]
		}
		if l.Relu {
			refClamp(out, float32(math.Inf(1)))
		}
		return out, nil
	case *MaxPool:
		return refMaxPool(x, l.Window, l.Stride)
	case *GlobalAvgPool:
		if x.Rank() != 3 {
			return nil, fmt.Errorf("ref gap: input %v", x.Shape())
		}
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		out := tensor.MustNew(c)
		for ch := 0; ch < c; ch++ {
			var sum float32
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					sum += x.At(ch, y, xx)
				}
			}
			out.Set(sum/float32(h*w), ch)
		}
		return out, nil
	case *Softmax:
		if x.Rank() != 1 {
			return nil, fmt.Errorf("ref softmax: input %v", x.Shape())
		}
		out := x.Clone()
		refSoftmax(out.Data())
		return out, nil
	case *Sequential:
		cur := x
		for _, sub := range l.Layers() {
			out, err := refForward(sub, cur)
			if err != nil {
				return nil, err
			}
			cur = out
		}
		return cur, nil
	case *Residual:
		out, err := refForward(l.Body(), x.Clone())
		if err != nil {
			return nil, err
		}
		if !tensor.SameShape(out, x) {
			return nil, fmt.Errorf("ref residual: body changed shape %v -> %v", x.Shape(), out.Shape())
		}
		for i := range out.Data() {
			out.Data()[i] += x.Data()[i]
		}
		refClamp(out, float32(math.Inf(1)))
		return out, nil
	}
	return nil, fmt.Errorf("ref: no reference for %T", l)
}

// refClamp clamps every element to [0, hi] in place.
func refClamp(t *tensor.Tensor, hi float32) {
	for i, v := range t.Data() {
		switch {
		case v < 0:
			t.Data()[i] = 0
		case v > hi:
			t.Data()[i] = hi
		}
	}
}

// refConv is the direct six-deep convolution loop nest.
func refConv(x, kernels, bias *tensor.Tensor, stride, pad int) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != kernels.Dim(1) || stride <= 0 {
		return nil, fmt.Errorf("ref conv: input %v, kernels %v, stride %d", x.Shape(), kernels.Shape(), stride)
	}
	cin, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	cout, kh, kw := kernels.Dim(0), kernels.Dim(2), kernels.Dim(3)
	hOut, wOut := (h+2*pad-kh)/stride+1, (w+2*pad-kw)/stride+1
	if hOut <= 0 || wOut <= 0 {
		return nil, fmt.Errorf("ref conv: empty output for %v", x.Shape())
	}
	out := tensor.MustNew(cout, hOut, wOut)
	for oc := 0; oc < cout; oc++ {
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				sum := bias.At(oc)
				for ic := 0; ic < cin; ic++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							sum += x.At(ic, iy, ix) * kernels.At(oc, ic, ky, kx)
						}
					}
				}
				out.Set(sum, oc, oy, ox)
			}
		}
	}
	return out, nil
}

// refDepthwise convolves each channel with its own kernel, directly.
func refDepthwise(x, kernels, bias *tensor.Tensor, stride, pad int) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != kernels.Dim(0) || stride <= 0 {
		return nil, fmt.Errorf("ref dwconv: input %v, kernels %v, stride %d", x.Shape(), kernels.Shape(), stride)
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	kh, kw := kernels.Dim(1), kernels.Dim(2)
	hOut, wOut := (h+2*pad-kh)/stride+1, (w+2*pad-kw)/stride+1
	if hOut <= 0 || wOut <= 0 {
		return nil, fmt.Errorf("ref dwconv: empty output for %v", x.Shape())
	}
	out := tensor.MustNew(c, hOut, wOut)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				sum := bias.At(ch)
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						sum += x.At(ch, iy, ix) * kernels.At(ch, ky, kx)
					}
				}
				out.Set(sum, ch, oy, ox)
			}
		}
	}
	return out, nil
}

func refMaxPool(x *tensor.Tensor, window, stride int) (*tensor.Tensor, error) {
	if x.Rank() != 3 || window <= 0 || stride <= 0 {
		return nil, fmt.Errorf("ref maxpool: input %v, window %d, stride %d", x.Shape(), window, stride)
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	hOut, wOut := (h-window)/stride+1, (w-window)/stride+1
	if hOut <= 0 || wOut <= 0 {
		return nil, fmt.Errorf("ref maxpool: empty output for %v", x.Shape())
	}
	out := tensor.MustNew(c, hOut, wOut)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				best := x.At(ch, oy*stride, ox*stride)
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						if v := x.At(ch, oy*stride+ky, ox*stride+kx); v > best {
							best = v
						}
					}
				}
				out.Set(best, ch, oy, ox)
			}
		}
	}
	return out, nil
}

// refMatVec is y = A × x with the naive dot-product loop, from zero.
func refMatVec(a, x *tensor.Tensor) *tensor.Tensor {
	m, k := a.Dim(0), a.Dim(1)
	y := tensor.MustNew(m)
	for i := 0; i < m; i++ {
		var sum float32
		for p := 0; p < k; p++ {
			sum += a.At(i, p) * x.At(p)
		}
		y.Set(sum, i)
	}
	return y
}

// refSoftmax is the max-shifted softmax in float64, in place.
func refSoftmax(v []float32) {
	maxV := math.Inf(-1)
	for _, x := range v {
		maxV = math.Max(maxV, float64(x))
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x) - maxV)
		v[i] = float32(e)
		sum += e
	}
	for i := range v {
		v[i] = float32(float64(v[i]) / sum)
	}
}

func refSigmoid(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }
func refTanh(v float32) float32    { return float32(math.Tanh(float64(v))) }

// refLSTMStep advances one sequence by one time step: two matrix–vector
// products, their sum, the bias, then the gate arithmetic.
func refLSTMStep(c *LSTMCell, x, hPrev, cPrev *tensor.Tensor) (h, cState *tensor.Tensor) {
	gates := refMatVec(c.Wx, x)
	gh := refMatVec(c.Wh, hPrev)
	for i := range gates.Data() {
		gates.Data()[i] += gh.Data()[i]
	}
	for i := range gates.Data() {
		gates.Data()[i] += c.Bias.Data()[i]
	}
	hs := c.HiddenSize
	h, cState = tensor.MustNew(hs), tensor.MustNew(hs)
	for i := 0; i < hs; i++ {
		in := refSigmoid(gates.At(i))
		forget := refSigmoid(gates.At(hs + i))
		cell := refTanh(gates.At(2*hs + i))
		out := refSigmoid(gates.At(3*hs + i))
		cNew := forget*cPrev.At(i) + in*cell
		cState.Set(cNew, i)
		h.Set(out*refTanh(cNew), i)
	}
	return h, cState
}

// refEmbed returns the token's embedding row.
func refEmbed(e *Embedding, token int) (*tensor.Tensor, error) {
	if token < 0 || token >= e.Vocab {
		return nil, fmt.Errorf("ref embedding: token %d outside vocabulary of %d", token, e.Vocab)
	}
	out := tensor.MustNew(e.Dim)
	copy(out.Data(), e.Weights.Data()[token*e.Dim:(token+1)*e.Dim])
	return out, nil
}

// refTranslate greedily decodes one sentence: encode token by token, then
// decode with dot-product attention over the top encoder states until EOS or
// MaxLen.
func refTranslate(m *Seq2Seq, src []int) ([]int, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("ref translate: empty source sentence")
	}
	h := make([]*tensor.Tensor, len(m.Encoder))
	c := make([]*tensor.Tensor, len(m.Encoder))
	for i := range m.Encoder {
		h[i], c[i] = tensor.MustNew(m.HiddenSize), tensor.MustNew(m.HiddenSize)
	}
	var encStates []*tensor.Tensor
	for _, tok := range src {
		cur, err := refEmbed(m.SrcEmbed, tok)
		if err != nil {
			return nil, err
		}
		for i, cell := range m.Encoder {
			h[i], c[i] = refLSTMStep(cell, cur, h[i], c[i])
			cur = h[i]
		}
		encStates = append(encStates, cur)
	}
	dh := make([]*tensor.Tensor, len(m.Decoder))
	dc := make([]*tensor.Tensor, len(m.Decoder))
	for i := range m.Decoder {
		dh[i], dc[i] = h[len(h)-1].Clone(), c[len(c)-1].Clone()
	}
	out := []int{}
	prev := m.BOS
	for step := 0; step < m.MaxLen; step++ {
		emb, err := refEmbed(m.DstEmbed, prev)
		if err != nil {
			return nil, err
		}
		// Attention: scores are query·state, softmaxed, then blend the states.
		query := dh[len(dh)-1]
		scores := make([]float32, len(encStates))
		for i, s := range encStates {
			var dot float32
			for j := 0; j < m.HiddenSize; j++ {
				dot += query.At(j) * s.At(j)
			}
			scores[i] = dot
		}
		refSoftmax(scores)
		context := tensor.MustNew(m.HiddenSize)
		for i, s := range encStates {
			for j := 0; j < m.HiddenSize; j++ {
				context.Data()[j] += scores[i] * s.At(j)
			}
		}
		cur := tensor.MustNew(emb.Len() + context.Len())
		copy(cur.Data(), emb.Data())
		copy(cur.Data()[emb.Len():], context.Data())
		for i, cell := range m.Decoder {
			dh[i], dc[i] = refLSTMStep(cell, cur, dh[i], dc[i])
			cur = dh[i]
		}
		logits, err := refForward(m.Output, cur)
		if err != nil {
			return nil, err
		}
		next := logits.ArgMax()
		if next == m.EOS {
			break
		}
		out = append(out, next)
		prev = next
	}
	return out, nil
}

// packBatch stacks equal-shape samples into the channel-major batch layout:
// CHW samples into [C, N, H, W], vectors into [F, N].
func packBatch(t *testing.T, samples []*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	n := len(samples)
	if samples[0].Rank() == 3 {
		batch := tensor.MustNew(samples[0].Dim(0), n, samples[0].Dim(1), samples[0].Dim(2))
		for i, s := range samples {
			if err := tensor.PackSample(batch, s, i); err != nil {
				t.Fatal(err)
			}
		}
		return batch
	}
	f := samples[0].Len()
	batch := tensor.MustNew(f, n)
	for i, s := range samples {
		for r := 0; r < f; r++ {
			batch.Data()[r*n+i] = s.Data()[r]
		}
	}
	return batch
}

// unpackSample copies sample n out of a [C, N, H, W] or [F, N] batch.
func unpackSample(t *testing.T, batch *tensor.Tensor, n int) *tensor.Tensor {
	t.Helper()
	if batch.Rank() == 4 {
		out := tensor.MustNew(batch.Dim(0), batch.Dim(2), batch.Dim(3))
		if err := tensor.UnpackSample(out, batch, n); err != nil {
			t.Fatal(err)
		}
		return out
	}
	f, cols := batch.Dim(0), batch.Dim(1)
	out := tensor.MustNew(f)
	for r := 0; r < f; r++ {
		out.Data()[r] = batch.Data()[r*cols+n]
	}
	return out
}

// forwardOne runs l on one sample as a batch of one, on a fresh arena.
func forwardOne(t *testing.T, l Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	t.Helper()
	out, err := l.Forward(packBatch(t, []*tensor.Tensor{x}), tensor.NewScratch())
	if err != nil {
		return nil, err
	}
	return unpackSample(t, out, 0), nil
}

const refTol = 1e-4

// requireBatchMatch compares results the engine produced under two batch
// shapes. Below the FMA tier any two shapes are bit-identical; the FMA tier
// only promises it within one vectorized region, so there it is a tolerance.
func requireBatchMatch(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	requireMatch(t, got, want, label, tensor.ActiveSIMD() != tensor.SIMDFMA)
}

// requireRefMatch compares an engine result with the naive reference. On
// amd64 below the FMA tier the engine performs the reference's arithmetic in
// the reference's order, so the match is bit for bit; the FMA tier, and an
// architecture whose compiler fuses multiply-adds on its own, only promise a
// tolerance.
func requireRefMatch(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	requireMatch(t, got, want, label, runtime.GOARCH == "amd64" && tensor.ActiveSIMD() != tensor.SIMDFMA)
}

func requireMatch(t *testing.T, got, want *tensor.Tensor, label string, exact bool) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	if !exact {
		if !tensor.Equalish(got, want, refTol) {
			t.Fatalf("%s: differs beyond %g", label, refTol)
		}
		return
	}
	for i := range got.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s: element %d differs bit-for-bit: %v vs %v", label, i, got.Data()[i], want.Data()[i])
		}
	}
}
