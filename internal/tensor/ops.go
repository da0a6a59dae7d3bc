package tensor

import (
	"fmt"
	"math"
)

// MatMulInto computes C = A × B into the caller-provided dst, which must have
// shape m×n and must not alias a or b. dst is fully overwritten, so it may be
// uninitialized Scratch memory.
func MatMulInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: MatMulInto requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulInto inner dimensions differ: %d vs %d", k, k2)
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	gemmInto(dst.data, a.data, b.data, nil, m, k, n)
	return nil
}

// MatVecInto computes y = A × x into the caller-provided dst (length m),
// which must not alias a or x. dst is fully overwritten.
func MatVecInto(dst, a, x *Tensor) error {
	if a.Rank() != 2 || x.Rank() != 1 {
		return fmt.Errorf("tensor: MatVecInto requires rank-2 and rank-1 operands, got %v and %v", a.shape, x.shape)
	}
	m, k := a.shape[0], a.shape[1]
	if k != x.shape[0] {
		return fmt.Errorf("tensor: MatVecInto dimension mismatch: %d vs %d", k, x.shape[0])
	}
	if dst.Rank() != 1 || dst.shape[0] != m {
		return fmt.Errorf("tensor: MatVecInto dst shape %v, want [%d]", dst.shape, m)
	}
	matVecInto(dst.data, a.data, x.data, m, k)
	return nil
}

// Conv2DOptions configures a 2-D convolution.
type Conv2DOptions struct {
	Stride  int
	Padding int
}

// convGeom carries the validated per-sample dimensions of a standard
// convolution.
type convGeom struct {
	cin, h, w    int
	cout, kh, kw int
	hOut, wOut   int
}

// conv2DGeometry validates a cin × h × w sample against kernels/bias and
// computes the output geometry.
func conv2DGeometry(cin, h, w int, kernels, bias *Tensor, opts Conv2DOptions) (convGeom, error) {
	g := convGeom{cin: cin, h: h, w: w}
	if kernels.Rank() != 4 {
		return g, fmt.Errorf("tensor: Conv2D requires OIHW kernels, got %v", kernels.shape)
	}
	if opts.Stride <= 0 {
		return g, fmt.Errorf("tensor: Conv2D stride must be positive, got %d", opts.Stride)
	}
	g.cout, g.kh, g.kw = kernels.shape[0], kernels.shape[2], kernels.shape[3]
	if g.cin != kernels.shape[1] {
		return g, fmt.Errorf("tensor: Conv2D channel mismatch: input %d vs kernel %d", g.cin, kernels.shape[1])
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != g.cout) {
		return g, fmt.Errorf("tensor: Conv2D bias shape %v does not match %d output channels", bias.shape, g.cout)
	}
	g.hOut = (g.h+2*opts.Padding-g.kh)/opts.Stride + 1
	g.wOut = (g.w+2*opts.Padding-g.kw)/opts.Stride + 1
	if g.hOut <= 0 || g.wOut <= 0 {
		return g, fmt.Errorf("tensor: Conv2D output would be empty (input %dx%d, kernel %dx%d, stride %d, pad %d)",
			g.h, g.w, g.kh, g.kw, opts.Stride, opts.Padding)
	}
	return g, nil
}

// im2colSampleRow fills one im2col row segment (length hOut·wOut) for one
// sample: the values kernel tap (ky, kx) reads from the channel plane src at
// every output position, zero where the tap falls into padding.
func im2colSampleRow(dst, src []float32, opts Conv2DOptions, g convGeom, ky, kx int) {
	stride, pad := opts.Stride, opts.Padding
	offX := kx - pad
	lo, hi := validRange(offX, stride, g.w, g.wOut)
	for oy := 0; oy < g.hOut; oy++ {
		seg := dst[oy*g.wOut : oy*g.wOut+g.wOut]
		iy := oy*stride + ky - pad
		if iy < 0 || iy >= g.h {
			for i := range seg {
				seg[i] = 0
			}
			continue
		}
		srow := src[iy*g.w : iy*g.w+g.w]
		for i := 0; i < lo; i++ {
			seg[i] = 0
		}
		if stride == 1 {
			copy(seg[lo:hi], srow[lo+offX:hi+offX])
		} else {
			ix := lo*stride + offX
			for ox := lo; ox < hi; ox++ {
				seg[ox] = srow[ix]
				ix += stride
			}
		}
		for i := hi; i < g.wOut; i++ {
			seg[i] = 0
		}
	}
}

// validRange returns the half-open range of output positions ox for which
// ox*stride+off lands inside [0, extent); the result is clipped to
// [0, outExtent).
func validRange(off, stride, extent, outExtent int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	last := extent - 1 - off
	if last < 0 {
		return 0, 0
	}
	hi = last/stride + 1
	if hi > outExtent {
		hi = outExtent
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// dwGeom carries the validated dimensions of a depthwise convolution.
type dwGeom struct {
	c, h, w    int
	kh, kw     int
	hOut, wOut int
}

// depthwiseGeometry validates a c × h × w sample against kernels/bias and
// computes the output geometry.
func depthwiseGeometry(c, h, w int, kernels, bias *Tensor, opts Conv2DOptions) (dwGeom, error) {
	g := dwGeom{c: c, h: h, w: w}
	if kernels.Rank() != 3 {
		return g, fmt.Errorf("tensor: DepthwiseConv2D requires CHW kernels, got %v", kernels.shape)
	}
	if opts.Stride <= 0 {
		return g, fmt.Errorf("tensor: DepthwiseConv2D stride must be positive, got %d", opts.Stride)
	}
	g.kh, g.kw = kernels.shape[1], kernels.shape[2]
	if g.c != kernels.shape[0] {
		return g, fmt.Errorf("tensor: DepthwiseConv2D channel mismatch: %d vs %d", g.c, kernels.shape[0])
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != g.c) {
		return g, fmt.Errorf("tensor: DepthwiseConv2D bias shape %v does not match %d channels", bias.shape, g.c)
	}
	g.hOut = (g.h+2*opts.Padding-g.kh)/opts.Stride + 1
	g.wOut = (g.w+2*opts.Padding-g.kw)/opts.Stride + 1
	if g.hOut <= 0 || g.wOut <= 0 {
		return g, fmt.Errorf("tensor: DepthwiseConv2D output would be empty")
	}
	return g, nil
}

// depthwisePlane convolves one spatial plane with one kernel. Each output row
// is initialized to the bias and accumulated tap by tap over the valid range
// of output positions, so the inner loops carry no bounds tests; accumulation
// order per element matches the serial reference (ky then kx ascending).
func depthwisePlane(dst, src, ker []float32, bv float32, opts Conv2DOptions, g dwGeom) {
	stride, pad := opts.Stride, opts.Padding
	for oy := 0; oy < g.hOut; oy++ {
		row := dst[oy*g.wOut : oy*g.wOut+g.wOut]
		for i := range row {
			row[i] = bv
		}
		for ky := 0; ky < g.kh; ky++ {
			iy := oy*stride + ky - pad
			if iy < 0 || iy >= g.h {
				continue
			}
			srow := src[iy*g.w : iy*g.w+g.w]
			krow := ker[ky*g.kw : ky*g.kw+g.kw]
			for kx, wv := range krow {
				off := kx - pad
				lo, hi := validRange(off, stride, g.w, g.wOut)
				if stride == 1 {
					for ox := lo; ox < hi; ox++ {
						row[ox] += wv * srow[ox+off]
					}
				} else {
					ix := lo*stride + off
					for ox := lo; ox < hi; ox++ {
						row[ox] += wv * srow[ix]
						ix += stride
					}
				}
			}
		}
	}
}

// maxPoolGeometry validates the window against an h × w plane and computes
// the pooled plane's dimensions.
func maxPoolGeometry(h, w, window, stride int) (hOut, wOut int, err error) {
	if window <= 0 || stride <= 0 {
		return 0, 0, fmt.Errorf("tensor: MaxPool2D window and stride must be positive")
	}
	hOut = (h-window)/stride + 1
	wOut = (w-window)/stride + 1
	if hOut <= 0 || wOut <= 0 {
		return 0, 0, fmt.Errorf("tensor: MaxPool2D output would be empty")
	}
	return hOut, wOut, nil
}

// maxPoolPlane pools one spatial plane.
func maxPoolPlane(dst, src []float32, window, stride, w, hOut, wOut int) {
	for oy := 0; oy < hOut; oy++ {
		for ox := 0; ox < wOut; ox++ {
			best := float32(math.Inf(-1))
			for ky := 0; ky < window; ky++ {
				srow := src[(oy*stride+ky)*w+ox*stride:]
				for kx := 0; kx < window; kx++ {
					if v := srow[kx]; v > best {
						best = v
					}
				}
			}
			dst[oy*wOut+ox] = best
		}
	}
}

// avgPlane averages one spatial plane (sum ascending, then one divide).
func avgPlane(src []float32, area float32) float32 {
	var sum float32
	for _, v := range src {
		sum += v
	}
	return sum / area
}

// ReLU applies max(0, x) in place and returns the tensor for chaining.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.data {
		if v < 0 {
			t.data[i] = 0
		}
	}
	return t
}

// SoftmaxInto computes the softmax of a 1-D tensor into the caller-provided
// dst (same length). dst is fully overwritten; it may equal t for an
// in-place softmax.
func SoftmaxInto(dst, t *Tensor) error {
	if t.Rank() != 1 {
		return fmt.Errorf("tensor: Softmax requires a rank-1 tensor, got %v", t.shape)
	}
	if dst.Rank() != 1 || dst.shape[0] != t.shape[0] {
		return fmt.Errorf("tensor: SoftmaxInto dst shape %v, want %v", dst.shape, t.shape)
	}
	maxV := float64(math.Inf(-1))
	for _, v := range t.data {
		if float64(v) > maxV {
			maxV = float64(v)
		}
	}
	var sum float64
	for i, v := range t.data {
		e := math.Exp(float64(v) - maxV)
		dst.data[i] = float32(e)
		sum += e
	}
	if sum == 0 {
		return fmt.Errorf("tensor: Softmax underflow")
	}
	for i := range dst.data {
		dst.data[i] = float32(float64(dst.data[i]) / sum)
	}
	return nil
}
