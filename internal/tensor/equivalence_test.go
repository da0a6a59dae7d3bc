package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Equivalence tests: the blocked/parallel kernels must agree with the serial
// reference kernels (serial_test.go) over randomized shapes (including
// padding and stride edge cases) and be bit-for-bit deterministic across
// repeated runs at a fixed worker count.

const kernelTol = 1e-4

func randFilled(r *rand.Rand, shape ...int) *Tensor {
	t := MustNew(shape...)
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64())
	}
	return t
}

func requireEqualish(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !Equalish(got, want, kernelTol) {
		t.Fatalf("%s: parallel kernel diverges from serial reference (shapes %v vs %v)",
			label, got.Shape(), want.Shape())
	}
}

// requireSerialMatch compares an engine result with the serial reference. On
// amd64 below the FMA tier the engine performs the reference's arithmetic in
// the reference's order, so the match is bit for bit; the FMA tier, and an
// architecture whose compiler fuses multiply-adds on its own, only promise
// the kernel tolerance.
func requireSerialMatch(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if runtime.GOARCH == "amd64" && ActiveSIMD() != SIMDFMA {
		requireBitIdentical(t, got, want, label)
		return
	}
	requireEqualish(t, got, want, label)
}

// requireKernelMatch compares two GEMM-derived results that may have taken
// different panel/column splits. Off and avx2 guarantee bit-identity across
// any split; the FMA tier only guarantees it within the vectorized region, so
// there the comparison relaxes to the kernel tolerance (see simd.go).
func requireKernelMatch(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if ActiveSIMD() == SIMDFMA {
		requireEqualish(t, got, want, label)
		return
	}
	requireBitIdentical(t, got, want, label)
}

func requireBitIdentical(t *testing.T, a, b *Tensor, label string) {
	t.Helper()
	if !SameShape(a, b) {
		t.Fatalf("%s: shapes differ: %v vs %v", label, a.Shape(), b.Shape())
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			t.Fatalf("%s: element %d differs bit-for-bit: %x vs %x",
				label, i, math.Float32bits(a.data[i]), math.Float32bits(b.data[i]))
		}
	}
}

func TestMatMulMatchesSerialRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		a := randFilled(r, m, k)
		b := randFilled(r, k, n)
		got, err := matMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MatMulSerial(a, b)
		if err != nil {
			t.Fatal(err)
		}
		requireSerialMatch(t, got, want, "MatMul")
	}
}

func TestMatMulMatchesSerialAboveParallelThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	// 131×130×129 ≈ 2.2M MACs > ParallelFlopThreshold, so the parallel
	// strip-partitioned path runs on multi-core hosts; the odd sizes force
	// both the 4-row kernel and the remainder row/chunk boundaries.
	m, k, n := 131, 130, 129
	if m*k*n <= ParallelFlopThreshold() {
		t.Fatalf("test workload %d MACs no longer exceeds ParallelFlopThreshold %d", m*k*n, ParallelFlopThreshold())
	}
	a := randFilled(r, m, k)
	b := randFilled(r, k, n)
	got, _ := matMul(a, b)
	want, _ := MatMulSerial(a, b)
	requireEqualish(t, got, want, "matMul(large)")
}

func TestMatVecMatchesSerialAboveParallelThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m, k := 1031, 1030
	if m*k <= ParallelFlopThreshold() {
		t.Fatalf("test workload %d MACs no longer exceeds ParallelFlopThreshold %d", m*k, ParallelFlopThreshold())
	}
	a := randFilled(r, m, k)
	x := randFilled(r, k)
	got, _ := matVec(a, x)
	want, _ := MatVecSerial(a, x)
	requireEqualish(t, got, want, "matVec(large)")
}

func TestMatVecMatchesSerialRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		m, k := 1+r.Intn(300), 1+r.Intn(300)
		a := randFilled(r, m, k)
		x := randFilled(r, k)
		got, err := matVec(a, x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MatVecSerial(a, x)
		if err != nil {
			t.Fatal(err)
		}
		requireSerialMatch(t, got, want, "MatVec")
	}
}

func TestConv2DMatchesSerialRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	trials := 0
	for trials < 80 {
		cin, cout := 1+r.Intn(6), 1+r.Intn(8)
		h, w := 1+r.Intn(14), 1+r.Intn(14)
		kh, kw := 1+r.Intn(5), 1+r.Intn(5)
		opts := Conv2DOptions{Stride: 1 + r.Intn(3), Padding: r.Intn(3)}
		if (h+2*opts.Padding-kh)/opts.Stride+1 <= 0 || (w+2*opts.Padding-kw)/opts.Stride+1 <= 0 {
			continue
		}
		trials++
		input := randFilled(r, cin, h, w)
		kernels := randFilled(r, cout, cin, kh, kw)
		var bias *Tensor
		if r.Intn(2) == 0 {
			bias = randFilled(r, cout)
		}
		got, err := conv2D(input, kernels, bias, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Conv2DSerial(input, kernels, bias, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSerialMatch(t, got, want, "Conv2D")
	}
}

// Kernels reaching exactly to the padded border and strides that skip the
// last columns are the classic im2col off-by-one traps.
func TestConv2DPaddingStrideEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	cases := []struct {
		h, w, kh, kw, stride, pad int
	}{
		{1, 1, 1, 1, 1, 0},
		{1, 1, 3, 3, 1, 1}, // output exists only thanks to padding
		{5, 5, 5, 5, 1, 2}, // kernel as large as input, heavy padding
		{7, 3, 3, 3, 2, 1}, // rectangular input, strided
		{8, 8, 2, 2, 3, 0}, // stride skips trailing columns
		{4, 9, 3, 1, 2, 0}, // 1-wide kernel
		{9, 4, 1, 3, 2, 1}, // 1-tall kernel
		{6, 6, 3, 3, 6, 2}, // stride larger than kernel
	}
	for _, tc := range cases {
		opts := Conv2DOptions{Stride: tc.stride, Padding: tc.pad}
		input := randFilled(r, 3, tc.h, tc.w)
		kernels := randFilled(r, 4, 3, tc.kh, tc.kw)
		bias := randFilled(r, 4)
		got, err := conv2D(input, kernels, bias, opts)
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		want, err := Conv2DSerial(input, kernels, bias, opts)
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		requireEqualish(t, got, want, "conv2D(edge)")
	}
}

func TestConv2DMatchesSerialAboveParallelThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	input := randFilled(r, 16, 32, 32)
	kernels := randFilled(r, 32, 16, 3, 3)
	bias := randFilled(r, 32)
	opts := Conv2DOptions{Stride: 1, Padding: 1}
	// 32 out-channels × (16·3·3) taps × (32·32) positions ≈ 4.7M MACs, above
	// ParallelFlopThreshold, so the GEMM runs its parallel path.
	if 32*16*3*3*32*32 <= ParallelFlopThreshold() {
		t.Fatalf("test workload no longer exceeds ParallelFlopThreshold %d", ParallelFlopThreshold())
	}
	got, err := conv2D(input, kernels, bias, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Conv2DSerial(input, kernels, bias, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualish(t, got, want, "conv2D(large)")
}

func TestDepthwiseConv2DMatchesSerialRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	trials := 0
	for trials < 80 {
		c := 1 + r.Intn(8)
		h, w := 1+r.Intn(14), 1+r.Intn(14)
		kh, kw := 1+r.Intn(5), 1+r.Intn(5)
		opts := Conv2DOptions{Stride: 1 + r.Intn(3), Padding: r.Intn(3)}
		if (h+2*opts.Padding-kh)/opts.Stride+1 <= 0 || (w+2*opts.Padding-kw)/opts.Stride+1 <= 0 {
			continue
		}
		trials++
		input := randFilled(r, c, h, w)
		kernels := randFilled(r, c, kh, kw)
		var bias *Tensor
		if r.Intn(2) == 0 {
			bias = randFilled(r, c)
		}
		got, err := depthwiseConv2D(input, kernels, bias, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DepthwiseConv2DSerial(input, kernels, bias, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSerialMatch(t, got, want, "DepthwiseConv2D")
	}
}

func TestDepthwiseConv2DMatchesSerialAboveParallelThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	input := randFilled(r, 64, 64, 64)
	kernels := randFilled(r, 64, 3, 3)
	opts := Conv2DOptions{Stride: 1, Padding: 1}
	// 64 channels × (64·64) positions × 9 taps ≈ 2.4M MACs, above
	// ParallelFlopThreshold, so channels are distributed over the pool.
	if 64*64*64*3*3 <= ParallelFlopThreshold() {
		t.Fatalf("test workload no longer exceeds ParallelFlopThreshold %d", ParallelFlopThreshold())
	}
	got, err := depthwiseConv2D(input, kernels, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DepthwiseConv2DSerial(input, kernels, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualish(t, got, want, "depthwiseConv2D(large)")
}

// The parallel kernels must be bit-for-bit reproducible run to run: every
// output element is accumulated by exactly one goroutine in a fixed order,
// so the worker count and chunk scheduling must not leak into results.
func TestKernelsDeterministicAcrossRuns(t *testing.T) {
	r := rand.New(rand.NewSource(19))

	// All three workloads sit above ParallelFlopThreshold so the parallel
	// paths (not just the inline fallbacks) are what repeat runs compare.
	a := randFilled(r, 131, 130)
	b := randFilled(r, 130, 129)
	m1, _ := matMul(a, b)
	m2, _ := matMul(a, b)
	requireBitIdentical(t, m1, m2, "MatMul")

	input := randFilled(r, 16, 64, 64)
	kernels := randFilled(r, 32, 16, 3, 3)
	bias := randFilled(r, 32)
	opts := Conv2DOptions{Stride: 2, Padding: 1}
	c1, _ := conv2D(input, kernels, bias, opts)
	c2, _ := conv2D(input, kernels, bias, opts)
	requireBitIdentical(t, c1, c2, "Conv2D")

	big := randFilled(r, 64, 64, 64)
	dwK := randFilled(r, 64, 3, 3)
	d1, _ := depthwiseConv2D(big, dwK, nil, Conv2DOptions{Stride: 1, Padding: 1})
	d2, _ := depthwiseConv2D(big, dwK, nil, Conv2DOptions{Stride: 1, Padding: 1})
	requireBitIdentical(t, d1, d2, "DepthwiseConv2D")
}

// Kernels writing into recycled scratch memory must produce the same results
// as into fresh heap tensors — scratch memory is dirty by design, so any
// incomplete overwrite shows up here.
func TestKernelsOnPoisonedScratchMatchHeap(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	s := NewScratch()
	const batch = 3
	samples := make([]*Tensor, batch)
	for n := range samples {
		samples[n] = randFilled(r, 8, 13, 11)
	}
	input := packAll(t, samples)
	kernels := randFilled(r, 12, 8, 3, 3)
	bias := randFilled(r, 12)
	opts := Conv2DOptions{Stride: 2, Padding: 1}
	convWant := MustNew(12, batch, 7, 6)
	if err := Conv2DBatchedInto(convWant, input, kernels, bias, opts, PostNone, nil); err != nil {
		t.Fatal(err)
	}
	dw := randFilled(r, 8, 3, 3)
	dwWant := MustNew(8, batch, 7, 6)
	if err := DepthwiseConv2DBatchedInto(dwWant, input, dw, nil, opts, PostNone); err != nil {
		t.Fatal(err)
	}
	mpWant := MustNew(8, batch, 6, 5)
	if err := MaxPool2DBatchedInto(mpWant, input, 3, 2); err != nil {
		t.Fatal(err)
	}
	gapWant := MustNew(8, batch)
	if err := GlobalAvgPool2DBatchedInto(gapWant, input); err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 3; pass++ {
		s.Reset()
		// Poison the arena so stale contents are visible if not overwritten.
		dirty := s.Floats(1 << 14)
		for i := range dirty {
			dirty[i] = float32(math.NaN())
		}
		s.Reset()

		dst := s.Tensor(convWant.Shape()...)
		if err := Conv2DBatchedInto(dst, input, kernels, bias, opts, PostNone, s); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, dst, convWant, "Conv2DBatchedInto(scratch)")

		a := randFilled(r, 20, 30)
		bmat := randFilled(r, 30, 25)
		mm := s.Tensor(20, 25)
		if err := MatMulInto(mm, a, bmat); err != nil {
			t.Fatal(err)
		}
		mmWant, _ := matMul(a, bmat)
		requireBitIdentical(t, mm, mmWant, "MatMulInto(scratch)")

		x := randFilled(r, 30)
		mv := s.Tensor(20)
		if err := MatVecInto(mv, a, x); err != nil {
			t.Fatal(err)
		}
		mvWant, _ := matVec(a, x)
		requireBitIdentical(t, mv, mvWant, "MatVecInto(scratch)")

		dwDst := s.Tensor(dwWant.Shape()...)
		if err := DepthwiseConv2DBatchedInto(dwDst, input, dw, nil, opts, PostNone); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, dwDst, dwWant, "DepthwiseConv2DBatchedInto(scratch)")

		mp := s.Tensor(mpWant.Shape()...)
		if err := MaxPool2DBatchedInto(mp, input, 3, 2); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, mp, mpWant, "MaxPool2DBatchedInto(scratch)")

		gap := s.Tensor(gapWant.Shape()...)
		if err := GlobalAvgPool2DBatchedInto(gap, input); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, gap, gapWant, "GlobalAvgPool2DBatchedInto(scratch)")
	}
}

func TestKernelsRejectBadShapes(t *testing.T) {
	a := MustNew(3, 4)
	b := MustNew(4, 5)
	if err := MatMulInto(MustNew(3, 6), a, b); err == nil {
		t.Error("MatMulInto wrong dst shape: expected error")
	}
	if err := MatVecInto(MustNew(4), a, MustNew(4)); err == nil {
		t.Error("MatVecInto wrong dst shape: expected error")
	}
	input := MustNew(2, 3, 8, 8)
	kern := MustNew(4, 2, 3, 3)
	opts := Conv2DOptions{Stride: 1}
	if err := Conv2DBatchedInto(MustNew(4, 3, 9, 9), input, kern, nil, opts, PostNone, nil); err == nil {
		t.Error("Conv2DBatchedInto wrong dst shape: expected error")
	}
	if err := Conv2DBatchedInto(MustNew(4, 2, 6, 6), input, kern, nil, opts, PostNone, nil); err == nil {
		t.Error("Conv2DBatchedInto wrong dst batch: expected error")
	}
	if err := Conv2DBatchedInto(MustNew(4, 6, 6), MustNew(2, 8, 8), kern, nil, opts, PostNone, nil); err == nil {
		t.Error("Conv2DBatchedInto CHW input: expected error")
	}
	if err := DepthwiseConv2DBatchedInto(MustNew(2, 3, 5, 5), input, MustNew(2, 3, 3), nil, opts, PostNone); err == nil {
		t.Error("DepthwiseConv2DBatchedInto wrong dst shape: expected error")
	}
	if err := MaxPool2DBatchedInto(MustNew(2, 3, 5, 5), input, 2, 2); err == nil {
		t.Error("MaxPool2DBatchedInto wrong dst shape: expected error")
	}
	if err := GlobalAvgPool2DBatchedInto(MustNew(2, 4), input); err == nil {
		t.Error("GlobalAvgPool2DBatchedInto wrong dst shape: expected error")
	}
}
