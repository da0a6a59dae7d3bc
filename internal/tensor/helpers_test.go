package tensor

import "fmt"

// Heap-destination, one-sample conveniences for the tests. Every kernel takes
// a batch and a caller-provided destination; a CHW sample runs as a batch of
// one, and since [C, 1, H, W] has CHW's memory layout the conversions are
// Reshape views, not copies.

func matMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, MatMulInto(MustNew(1, 1), a, b)
	}
	dst := MustNew(a.shape[0], b.shape[1])
	return dst, MatMulInto(dst, a, b)
}

func matVec(a, x *Tensor) (*Tensor, error) {
	dst := MustNew(a.shape[0])
	return dst, MatVecInto(dst, a, x)
}

// asBatchOfOne views a CHW sample as a [C, 1, H, W] batch.
func asBatchOfOne(input *Tensor) (*Tensor, error) {
	if input.Rank() != 3 {
		return nil, fmt.Errorf("tensor: want CHW input, got %v", input.shape)
	}
	return input.Reshape(input.shape[0], 1, input.shape[1], input.shape[2])
}

func conv2D(input, kernels, bias *Tensor, opts Conv2DOptions) (*Tensor, error) {
	x, err := asBatchOfOne(input)
	if err != nil {
		return nil, err
	}
	g, err := conv2DGeometry(input.shape[0], input.shape[1], input.shape[2], kernels, bias, opts)
	if err != nil {
		return nil, err
	}
	dst := MustNew(g.cout, 1, g.hOut, g.wOut)
	if err := Conv2DBatchedInto(dst, x, kernels, bias, opts, PostNone, nil); err != nil {
		return nil, err
	}
	return dst.Reshape(g.cout, g.hOut, g.wOut)
}

func depthwiseConv2D(input, kernels, bias *Tensor, opts Conv2DOptions) (*Tensor, error) {
	x, err := asBatchOfOne(input)
	if err != nil {
		return nil, err
	}
	g, err := depthwiseGeometry(input.shape[0], input.shape[1], input.shape[2], kernels, bias, opts)
	if err != nil {
		return nil, err
	}
	dst := MustNew(g.c, 1, g.hOut, g.wOut)
	if err := DepthwiseConv2DBatchedInto(dst, x, kernels, bias, opts, PostNone); err != nil {
		return nil, err
	}
	return dst.Reshape(g.c, g.hOut, g.wOut)
}

func maxPool2D(input *Tensor, window, stride int) (*Tensor, error) {
	x, err := asBatchOfOne(input)
	if err != nil {
		return nil, err
	}
	hOut, wOut, err := maxPoolGeometry(input.shape[1], input.shape[2], window, stride)
	if err != nil {
		return nil, err
	}
	dst := MustNew(input.shape[0], 1, hOut, wOut)
	if err := MaxPool2DBatchedInto(dst, x, window, stride); err != nil {
		return nil, err
	}
	return dst.Reshape(input.shape[0], hOut, wOut)
}

func globalAvgPool2D(input *Tensor) (*Tensor, error) {
	x, err := asBatchOfOne(input)
	if err != nil {
		return nil, err
	}
	dst := MustNew(input.shape[0], 1)
	if err := GlobalAvgPool2DBatchedInto(dst, x); err != nil {
		return nil, err
	}
	return dst.Reshape(input.shape[0])
}
