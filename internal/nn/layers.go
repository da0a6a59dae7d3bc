package nn

import (
	"fmt"
	"math"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// Conv is a 2-D convolution layer over CHW samples with optional fused ReLU.
type Conv struct {
	name    string
	Weights *tensor.Tensor // OIHW
	Bias    *tensor.Tensor // O
	Stride  int
	Padding int
	Relu    bool
	Relu6   bool
}

// NewConv constructs a convolution layer with weights initialized from rng
// (He-style scaling keeps activations well ranged through deep stacks).
func NewConv(name string, inC, outC, kernel, stride, padding int, rng *stats.RNG) *Conv {
	w := tensor.MustNew(outC, inC, kernel, kernel)
	fanIn := float64(inC * kernel * kernel)
	initHe(w, fanIn, rng)
	b := tensor.MustNew(outC)
	return &Conv{name: name, Weights: w, Bias: b, Stride: stride, Padding: padding, Relu: true}
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// Forward implements Layer: the whole batch runs as one im2col + one GEMM
// (tensor.Conv2DBatchedInto) with the activation fused into its epilogue,
// writing straight into the next layer's channel-major input layout.
func (c *Conv) Forward(x *tensor.Tensor, s *tensor.Scratch) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("conv %s: want [C N H W] batch, got %v", c.name, x.Shape())
	}
	h, w, err := c.outDims(x.Dim(0), x.Dim(2), x.Dim(3))
	if err != nil {
		return nil, err
	}
	dst := s.Tensor(c.Weights.Dim(0), x.Dim(1), h, w)
	post := tensor.PostNone
	switch {
	case c.Relu6:
		post = tensor.PostReLU6
	case c.Relu:
		post = tensor.PostReLU
	}
	if err := tensor.Conv2DBatchedInto(dst, x, c.Weights, c.Bias, tensor.Conv2DOptions{Stride: c.Stride, Padding: c.Padding}, post, s); err != nil {
		return nil, err
	}
	return dst, nil
}

// outDims returns the output plane of a ch × h × w sample. Forward and
// OutputShape share it so the hot path sizes its output without building
// shape slices.
func (c *Conv) outDims(ch, h, w int) (hOut, wOut int, err error) {
	if ch != c.Weights.Dim(1) {
		return 0, 0, fmt.Errorf("conv %s: input channels %d != kernel channels %d", c.name, ch, c.Weights.Dim(1))
	}
	return windowPlane("conv", c.name, h, w, c.Weights.Dim(2), c.Weights.Dim(3), c.Stride, c.Padding)
}

// windowPlane returns the plane a kh × kw window produces sliding over an
// h × w plane padded by pad on every side — the one geometry convolutions and
// pooling share.
func windowPlane(kind, name string, h, w, kh, kw, stride, pad int) (hOut, wOut int, err error) {
	if stride <= 0 || kh <= 0 || kw <= 0 {
		return 0, 0, fmt.Errorf("%s %s: window %dx%d and stride %d must be positive", kind, name, kh, kw, stride)
	}
	hOut = (h+2*pad-kh)/stride + 1
	wOut = (w+2*pad-kw)/stride + 1
	if hOut <= 0 || wOut <= 0 {
		return 0, 0, fmt.Errorf("%s %s: empty output for a %dx%d input", kind, name, h, w)
	}
	return hOut, wOut, nil
}

// OutputShape implements Layer.
func (c *Conv) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("conv %s: want CHW input, got %v", c.name, in)
	}
	h, w, err := c.outDims(in[0], in[1], in[2])
	if err != nil {
		return nil, err
	}
	return []int{c.Weights.Dim(0), h, w}, nil
}

// ParamCount implements Layer.
func (c *Conv) ParamCount() int64 { return int64(c.Weights.Len() + c.Bias.Len()) }

// Ops implements Layer: 2 * kernel volume MACs per output element.
func (c *Conv) Ops(in []int) (int64, error) {
	out, err := c.OutputShape(in)
	if err != nil {
		return 0, err
	}
	ws := c.Weights.Shape()
	perOut := int64(2 * ws[1] * ws[2] * ws[3])
	return perOut * int64(out[0]) * int64(out[1]) * int64(out[2]), nil
}

// DepthwiseConv is a depthwise 2-D convolution (one kernel per channel) with
// fused ReLU6, as used in the MobileNet family.
type DepthwiseConv struct {
	name    string
	Weights *tensor.Tensor // CHW kernels
	Bias    *tensor.Tensor
	Stride  int
	Padding int
}

// NewDepthwiseConv constructs a depthwise convolution layer.
func NewDepthwiseConv(name string, channels, kernel, stride, padding int, rng *stats.RNG) *DepthwiseConv {
	w := tensor.MustNew(channels, kernel, kernel)
	initHe(w, float64(kernel*kernel), rng)
	return &DepthwiseConv{name: name, Weights: w, Bias: tensor.MustNew(channels), Stride: stride, Padding: padding}
}

// Name implements Layer.
func (d *DepthwiseConv) Name() string { return d.name }

// Forward implements Layer.
func (d *DepthwiseConv) Forward(x *tensor.Tensor, s *tensor.Scratch) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("dwconv %s: want [C N H W] batch, got %v", d.name, x.Shape())
	}
	h, w, err := d.outDims(x.Dim(0), x.Dim(2), x.Dim(3))
	if err != nil {
		return nil, err
	}
	dst := s.Tensor(x.Dim(0), x.Dim(1), h, w)
	if err := tensor.DepthwiseConv2DBatchedInto(dst, x, d.Weights, d.Bias, tensor.Conv2DOptions{Stride: d.Stride, Padding: d.Padding}, tensor.PostReLU6); err != nil {
		return nil, err
	}
	return dst, nil
}

// outDims returns the output plane of a ch × h × w sample (see Conv.outDims).
func (d *DepthwiseConv) outDims(ch, h, w int) (hOut, wOut int, err error) {
	if ch != d.Weights.Dim(0) {
		return 0, 0, fmt.Errorf("dwconv %s: channel mismatch %d vs %d", d.name, ch, d.Weights.Dim(0))
	}
	return windowPlane("dwconv", d.name, h, w, d.Weights.Dim(1), d.Weights.Dim(2), d.Stride, d.Padding)
}

// OutputShape implements Layer.
func (d *DepthwiseConv) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("dwconv %s: want CHW input, got %v", d.name, in)
	}
	h, w, err := d.outDims(in[0], in[1], in[2])
	if err != nil {
		return nil, err
	}
	return []int{in[0], h, w}, nil
}

// ParamCount implements Layer.
func (d *DepthwiseConv) ParamCount() int64 { return int64(d.Weights.Len() + d.Bias.Len()) }

// Ops implements Layer.
func (d *DepthwiseConv) Ops(in []int) (int64, error) {
	out, err := d.OutputShape(in)
	if err != nil {
		return 0, err
	}
	ws := d.Weights.Shape()
	perOut := int64(2 * ws[1] * ws[2])
	return perOut * int64(out[0]) * int64(out[1]) * int64(out[2]), nil
}

// Dense is a fully connected layer on vector samples with optional fused ReLU.
type Dense struct {
	name    string
	Weights *tensor.Tensor // out × in
	Bias    *tensor.Tensor // out
	Relu    bool
}

// NewDense constructs a fully connected layer.
func NewDense(name string, in, out int, relu bool, rng *stats.RNG) *Dense {
	w := tensor.MustNew(out, in)
	initHe(w, float64(in), rng)
	return &Dense{name: name, Weights: w, Bias: tensor.MustNew(out), Relu: relu}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Forward implements Layer: one GEMM of the weight matrix against the
// feature-major batch covers every sample, with no reshuffling of either
// operand.
func (d *Dense) Forward(x *tensor.Tensor, s *tensor.Scratch) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(0) != d.Weights.Dim(1) {
		return nil, fmt.Errorf("dense %s: want [%d N] batch, got %v", d.name, d.Weights.Dim(1), x.Shape())
	}
	y := s.Tensor(d.Weights.Dim(0), x.Dim(1))
	if err := tensor.DenseBatchedInto(y, d.Weights, x, d.Bias); err != nil {
		return nil, err
	}
	if d.Relu {
		return tensor.ReLU(y), nil
	}
	return y, nil
}

// OutputShape implements Layer.
func (d *Dense) OutputShape(in []int) ([]int, error) {
	ws := d.Weights.Shape()
	if len(in) != 1 || in[0] != ws[1] {
		return nil, fmt.Errorf("dense %s: want input [%d], got %v", d.name, ws[1], in)
	}
	return []int{ws[0]}, nil
}

// ParamCount implements Layer.
func (d *Dense) ParamCount() int64 { return int64(d.Weights.Len() + d.Bias.Len()) }

// Ops implements Layer.
func (d *Dense) Ops(in []int) (int64, error) {
	if _, err := d.OutputShape(in); err != nil {
		return 0, err
	}
	return 2 * int64(d.Weights.Len()), nil
}

// MaxPool is a max-pooling layer on CHW samples.
type MaxPool struct {
	name   string
	Window int
	Stride int
}

// NewMaxPool constructs a max-pooling layer.
func NewMaxPool(name string, window, stride int) *MaxPool {
	return &MaxPool{name: name, Window: window, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool) Name() string { return m.name }

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor, s *tensor.Scratch) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("maxpool %s: want [C N H W] batch, got %v", m.name, x.Shape())
	}
	h, w, err := windowPlane("maxpool", m.name, x.Dim(2), x.Dim(3), m.Window, m.Window, m.Stride, 0)
	if err != nil {
		return nil, err
	}
	dst := s.Tensor(x.Dim(0), x.Dim(1), h, w)
	if err := tensor.MaxPool2DBatchedInto(dst, x, m.Window, m.Stride); err != nil {
		return nil, err
	}
	return dst, nil
}

// OutputShape implements Layer.
func (m *MaxPool) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("maxpool %s: want CHW input, got %v", m.name, in)
	}
	h, w, err := windowPlane("maxpool", m.name, in[1], in[2], m.Window, m.Window, m.Stride, 0)
	if err != nil {
		return nil, err
	}
	return []int{in[0], h, w}, nil
}

// ParamCount implements Layer.
func (m *MaxPool) ParamCount() int64 { return 0 }

// Ops implements Layer.
func (m *MaxPool) Ops(in []int) (int64, error) {
	out, err := m.OutputShape(in)
	if err != nil {
		return 0, err
	}
	return int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(m.Window*m.Window), nil
}

// GlobalAvgPool reduces each CHW sample to a C-length vector.
type GlobalAvgPool struct{ name string }

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Forward implements Layer: [C, N, H, W] reduces to the feature-major [C, N]
// matrix the Dense head consumes directly.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, s *tensor.Scratch) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("gap %s: want [C N H W] batch, got %v", g.name, x.Shape())
	}
	dst := s.Tensor(x.Dim(0), x.Dim(1))
	if err := tensor.GlobalAvgPool2DBatchedInto(dst, x); err != nil {
		return nil, err
	}
	return dst, nil
}

// OutputShape implements Layer.
func (g *GlobalAvgPool) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("gap %s: want CHW input, got %v", g.name, in)
	}
	return []int{in[0]}, nil
}

// ParamCount implements Layer.
func (g *GlobalAvgPool) ParamCount() int64 { return 0 }

// Ops implements Layer.
func (g *GlobalAvgPool) Ops(in []int) (int64, error) {
	if len(in) != 3 {
		return 0, fmt.Errorf("gap %s: want CHW input, got %v", g.name, in)
	}
	return int64(in[0]) * int64(in[1]) * int64(in[2]), nil
}

// Softmax converts each sample's logits to probabilities.
type Softmax struct{ name string }

// NewSoftmax constructs a softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name implements Layer.
func (s *Softmax) Name() string { return s.name }

// Forward implements Layer: softmax applies per column of the feature-major
// batch.
func (s *Softmax) Forward(x *tensor.Tensor, sc *tensor.Scratch) (*tensor.Tensor, error) {
	if x.Rank() != 2 {
		return nil, fmt.Errorf("softmax %s: want [F N] batch, got %v", s.name, x.Shape())
	}
	f, batch := x.Dim(0), x.Dim(1)
	dst := sc.Tensor(f, batch)
	col := sc.Tensor(f)
	for n := 0; n < batch; n++ {
		for r := 0; r < f; r++ {
			col.Data()[r] = x.Data()[r*batch+n]
		}
		if err := tensor.SoftmaxInto(col, col); err != nil {
			return nil, err
		}
		for r := 0; r < f; r++ {
			dst.Data()[r*batch+n] = col.Data()[r]
		}
	}
	return dst, nil
}

// OutputShape implements Layer.
func (s *Softmax) OutputShape(in []int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("softmax %s: want rank-1 input, got %v", s.name, in)
	}
	return in, nil
}

// ParamCount implements Layer.
func (s *Softmax) ParamCount() int64 { return 0 }

// Ops implements Layer.
func (s *Softmax) Ops(in []int) (int64, error) {
	if len(in) != 1 {
		return 0, fmt.Errorf("softmax %s: want rank-1 input", s.name)
	}
	return 3 * int64(in[0]), nil
}

// initHe fills t with values from a scaled normal distribution
// (He initialization) so deep stacks neither saturate nor vanish.
func initHe(t *tensor.Tensor, fanIn float64, rng *stats.RNG) {
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	scale := float32(1.0)
	if fanIn > 0 {
		scale = float32(math.Sqrt(2 / fanIn))
	}
	data := t.Data()
	for i := range data {
		data[i] = float32(rng.NormFloat64()) * scale
	}
}
