package tensor

import (
	"fmt"
	"math"
)

// The single-threaded, single-sample reference kernels: the numerical ground
// truth the equivalence tests compare the batched engine (gemm.go, ops.go,
// batched.go) against. They are intentionally naive — plain nested loops in
// the canonical accumulation order — so their results are easy to reason
// about, and they live in a test file because nothing but tests calls them.

// MatMulSerial computes C = A × B with the naive row-scalar loop.
func MatMulSerial(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dimensions differ: %d vs %d", k, k2)
	}
	c := MustNew(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c, nil
}

// MatVecSerial computes y = A × x with the naive dot-product loop.
func MatVecSerial(a, x *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || x.Rank() != 1 {
		return nil, fmt.Errorf("tensor: MatVec requires rank-2 and rank-1 operands, got %v and %v", a.shape, x.shape)
	}
	m, k := a.shape[0], a.shape[1]
	if k != x.shape[0] {
		return nil, fmt.Errorf("tensor: MatVec dimension mismatch: %d vs %d", k, x.shape[0])
	}
	y := MustNew(m)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		var sum float32
		for p := 0; p < k; p++ {
			sum += row[p] * x.data[p]
		}
		y.data[i] = sum
	}
	return y, nil
}

// Conv2DSerial convolves with the direct six-deep loop nest.
func Conv2DSerial(input, kernels, bias *Tensor, opts Conv2DOptions) (*Tensor, error) {
	if input.Rank() != 3 {
		return nil, fmt.Errorf("tensor: Conv2D requires CHW input, got %v", input.shape)
	}
	g, err := conv2DGeometry(input.shape[0], input.shape[1], input.shape[2], kernels, bias, opts)
	if err != nil {
		return nil, err
	}
	cin, h, w := g.cin, g.h, g.w
	cout, kh, kw := g.cout, g.kh, g.kw
	hOut, wOut := g.hOut, g.wOut
	out := MustNew(cout, hOut, wOut)
	for oc := 0; oc < cout; oc++ {
		var b float32
		if bias != nil {
			b = bias.data[oc]
		}
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				sum := b
				for ic := 0; ic < cin; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*opts.Stride + ky - opts.Padding
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*opts.Stride + kx - opts.Padding
							if ix < 0 || ix >= w {
								continue
							}
							sum += input.data[(ic*h+iy)*w+ix] * kernels.data[((oc*cin+ic)*kh+ky)*kw+kx]
						}
					}
				}
				out.data[(oc*hOut+oy)*wOut+ox] = sum
			}
		}
	}
	return out, nil
}

// DepthwiseConv2DSerial convolves each channel with the direct loop nest.
func DepthwiseConv2DSerial(input, kernels, bias *Tensor, opts Conv2DOptions) (*Tensor, error) {
	if input.Rank() != 3 {
		return nil, fmt.Errorf("tensor: DepthwiseConv2D requires CHW input, got %v", input.shape)
	}
	g, err := depthwiseGeometry(input.shape[0], input.shape[1], input.shape[2], kernels, bias, opts)
	if err != nil {
		return nil, err
	}
	c, h, w := g.c, g.h, g.w
	kh, kw := g.kh, g.kw
	hOut, wOut := g.hOut, g.wOut
	out := MustNew(c, hOut, wOut)
	for ch := 0; ch < c; ch++ {
		var b float32
		if bias != nil {
			b = bias.data[ch]
		}
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				sum := b
				for ky := 0; ky < kh; ky++ {
					iy := oy*opts.Stride + ky - opts.Padding
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*opts.Stride + kx - opts.Padding
						if ix < 0 || ix >= w {
							continue
						}
						sum += input.data[(ch*h+iy)*w+ix] * kernels.data[(ch*kh+ky)*kw+kx]
					}
				}
				out.data[(ch*hOut+oy)*wOut+ox] = sum
			}
		}
	}
	return out, nil
}

// MaxPool2DSerial pools each channel of a CHW tensor with the direct loop
// nest.
func MaxPool2DSerial(input *Tensor, window, stride int) (*Tensor, error) {
	if input.Rank() != 3 {
		return nil, fmt.Errorf("tensor: MaxPool2D requires CHW input, got %v", input.shape)
	}
	c, h, w := input.shape[0], input.shape[1], input.shape[2]
	hOut, wOut, err := maxPoolGeometry(h, w, window, stride)
	if err != nil {
		return nil, err
	}
	out := MustNew(c, hOut, wOut)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				best := input.At(ch, oy*stride, ox*stride)
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						if v := input.At(ch, oy*stride+ky, ox*stride+kx); v > best {
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

// GlobalAvgPool2DSerial averages each channel of a CHW tensor: sum ascending,
// then one divide.
func GlobalAvgPool2DSerial(input *Tensor) (*Tensor, error) {
	if input.Rank() != 3 {
		return nil, fmt.Errorf("tensor: GlobalAvgPool2D requires CHW input, got %v", input.shape)
	}
	c, h, w := input.shape[0], input.shape[1], input.shape[2]
	out := MustNew(c)
	for ch := 0; ch < c; ch++ {
		var sum float32
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sum += input.At(ch, y, x)
			}
		}
		out.Set(sum/float32(h*w), ch)
	}
	return out, nil
}

// ReLU6Serial clamps every element to [0, 6] in place.
func ReLU6Serial(t *Tensor) *Tensor {
	for i, v := range t.data {
		t.data[i] = float32(math.Min(math.Max(float64(v), 0), 6))
	}
	return t
}
