package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMul(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(4, 2)
	if _, err := matMul(a, b); err == nil {
		t.Error("inner-dimension mismatch: expected error")
	}
	if _, err := matMul(MustNew(2), b); err == nil {
		t.Error("rank mismatch: expected error")
	}
}

func TestMatVec(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x, _ := FromSlice([]float32{5, 6}, 2)
	y, err := matVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 17 || y.At(1) != 39 {
		t.Errorf("MatVec = %v", y.Data())
	}
	if _, err := matVec(a, MustNew(3)); err == nil {
		t.Error("dimension mismatch: expected error")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	input, _ := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	kernel, _ := FromSlice([]float32{1}, 1, 1, 1, 1)
	out, err := conv2D(input, kernel, nil, Conv2DOptions{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !Equalish(out, input, 0) {
		t.Errorf("1x1 identity convolution changed the input: %v", out.Data())
	}
}

func TestConv2DKnownValues(t *testing.T) {
	input, _ := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	// 2x2 sum kernel, stride 1, no padding -> 2x2 output of window sums.
	kernel, _ := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	bias, _ := FromSlice([]float32{10}, 1)
	out, err := conv2D(input, kernel, bias, Conv2DOptions{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1 + 2 + 4 + 5 + 10, 2 + 3 + 5 + 6 + 10, 4 + 5 + 7 + 8 + 10, 5 + 6 + 8 + 9 + 10}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("conv[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	input := MustNew(1, 4, 4)
	input.Fill(1)
	kernel := MustNew(2, 1, 3, 3)
	kernel.Fill(1)
	out, err := conv2D(input, kernel, nil, Conv2DOptions{Stride: 2, Padding: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Shape()
	if s[0] != 2 || s[1] != 2 || s[2] != 2 {
		t.Fatalf("output shape = %v, want [2 2 2]", s)
	}
	// Top-left window with padding 1 covers 2x2 of ones = 4.
	if out.At(0, 0, 0) != 4 {
		t.Errorf("padded corner = %v, want 4", out.At(0, 0, 0))
	}
}

func TestConv2DErrors(t *testing.T) {
	input := MustNew(2, 4, 4)
	kernel := MustNew(1, 3, 3, 3) // channel mismatch
	if _, err := conv2D(input, kernel, nil, Conv2DOptions{Stride: 1}); err == nil {
		t.Error("channel mismatch: expected error")
	}
	if _, err := conv2D(input, MustNew(1, 2, 3, 3), nil, Conv2DOptions{Stride: 0}); err == nil {
		t.Error("zero stride: expected error")
	}
	if _, err := conv2D(input, MustNew(1, 2, 9, 9), nil, Conv2DOptions{Stride: 1}); err == nil {
		t.Error("kernel larger than input: expected error")
	}
}

func TestDepthwiseConv2D(t *testing.T) {
	input, _ := FromSlice([]float32{
		1, 2,
		3, 4,

		10, 20,
		30, 40,
	}, 2, 2, 2)
	kernels, _ := FromSlice([]float32{
		1, 1, 1, 1,
		2, 2, 2, 2,
	}, 2, 2, 2)
	out, err := depthwiseConv2D(input, kernels, nil, Conv2DOptions{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0) != 10 {
		t.Errorf("channel 0 = %v, want 10", out.At(0, 0, 0))
	}
	if out.At(1, 0, 0) != 200 {
		t.Errorf("channel 1 = %v, want 200", out.At(1, 0, 0))
	}
}

func TestDepthwiseConv2DErrors(t *testing.T) {
	if _, err := depthwiseConv2D(MustNew(2, 4, 4), MustNew(3, 3, 3), nil, Conv2DOptions{Stride: 1}); err == nil {
		t.Error("channel mismatch: expected error")
	}
}

func TestMaxPool2D(t *testing.T) {
	input, _ := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 4, 4)
	out, err := maxPool2D(input, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 8, 12, 16}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("maxpool[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	if _, err := maxPool2D(MustNew(1, 2, 2), 0, 1); err == nil {
		t.Error("zero window: expected error")
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	input, _ := FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 2, 2, 2)
	out, err := globalAvgPool2D(input)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0) != 2.5 || out.At(1) != 25 {
		t.Errorf("global avg pool = %v", out.Data())
	}
}

func TestActivations(t *testing.T) {
	x, _ := FromSlice([]float32{-2, 0, 3, 8}, 4)
	ReLU(x)
	if x.At(0) != 0 || x.At(3) != 8 {
		t.Errorf("ReLU = %v", x.Data())
	}
	y := []float32{-2, 0, 3, 8}
	applyPost(y, PostReLU6)
	if y[0] != 0 || y[2] != 3 || y[3] != 6 {
		t.Errorf("PostReLU6 = %v", y)
	}
	z := []float32{-2, 0, 3, 8}
	applyPost(z, PostReLU)
	if z[0] != 0 || z[3] != 8 {
		t.Errorf("PostReLU = %v", z)
	}
}

func TestSoftmax(t *testing.T) {
	x, _ := FromSlice([]float32{1, 2, 3}, 3)
	s := MustNew(3)
	if err := SoftmaxInto(s, x); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range s.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("softmax value out of range: %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax sums to %v", sum)
	}
	if s.ArgMax() != 2 {
		t.Errorf("softmax argmax = %d", s.ArgMax())
	}
	if err := SoftmaxInto(MustNew(2, 2), MustNew(2, 2)); err == nil {
		t.Error("rank-2 softmax: expected error")
	}
	if err := SoftmaxInto(MustNew(4), x); err == nil {
		t.Error("softmax dst length mismatch: expected error")
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	x, _ := FromSlice([]float32{1000, 1001, 1002}, 3)
	s := x // in place
	if err := SoftmaxInto(s, x); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax not numerically stable: %v", s.Data())
		}
	}
}

// Property: convolution is linear in its input — conv(a*x) == a*conv(x).
func TestConv2DLinearityProperty(t *testing.T) {
	f := func(seedVals []float32, scaleRaw uint8) bool {
		if len(seedVals) < 9 {
			return true
		}
		scale := 1 + float32(scaleRaw%5)
		in := MustNew(1, 3, 3)
		for i := 0; i < 9; i++ {
			v := seedVals[i]
			if v != v || v > 1e6 || v < -1e6 { // skip NaN / huge
				return true
			}
			in.Data()[i] = v
		}
		kernel, _ := FromSlice([]float32{1, 0, -1, 2}, 1, 1, 2, 2)
		out1, err := conv2D(in, kernel, nil, Conv2DOptions{Stride: 1})
		if err != nil {
			return false
		}
		scaled := in.Clone()
		scaled.Scale(scale)
		out2, err := conv2D(scaled, kernel, nil, Conv2DOptions{Stride: 1})
		if err != nil {
			return false
		}
		expected := out1.Clone()
		expected.Scale(scale)
		return Equalish(out2, expected, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
