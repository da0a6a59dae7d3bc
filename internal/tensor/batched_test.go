package tensor

import (
	"math/rand"
	"testing"
)

// A kernel on a batch of N must be bit-for-bit identical to N runs on batches
// of one, for every batch size and batch position, including on recycled
// scratch arenas, and the batch of one must match the serial reference.
// Samples live in the channel-major [C, N, H, W] layout;
// PackSample/UnpackSample convert at the boundaries.

// packAll packs CHW samples into a fresh channel-major batch.
func packAll(t *testing.T, samples []*Tensor) *Tensor {
	t.Helper()
	c, h, w := samples[0].Dim(0), samples[0].Dim(1), samples[0].Dim(2)
	batch := MustNew(c, len(samples), h, w)
	for n, s := range samples {
		if err := PackSample(batch, s, n); err != nil {
			t.Fatal(err)
		}
	}
	return batch
}

// unpackOne gathers sample n of a channel-major batch into a fresh CHW tensor.
func unpackOne(t *testing.T, batch *Tensor, n int) *Tensor {
	t.Helper()
	out := MustNew(batch.Dim(0), batch.Dim(2), batch.Dim(3))
	if err := UnpackSample(out, batch, n); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	samples := []*Tensor{randFilled(r, 3, 4, 5), randFilled(r, 3, 4, 5), randFilled(r, 3, 4, 5)}
	batch := packAll(t, samples)
	for n, want := range samples {
		requireBitIdentical(t, unpackOne(t, batch, n), want, "pack/unpack round trip")
	}
	if err := PackSample(batch, MustNew(2, 4, 5), 0); err == nil {
		t.Error("mismatched sample shape: expected error")
	}
	if err := UnpackSample(MustNew(3, 4, 5), batch, 9); err == nil {
		t.Error("out-of-range unpack: expected error")
	}
}

func TestConv2DBatchedMatchesSingleBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	s := NewScratch()
	for trial := 0; trial < 40; trial++ {
		batch := 1 + r.Intn(9)
		cin, h, w := 1+r.Intn(4), 3+r.Intn(10), 3+r.Intn(10)
		cout, k := 1+r.Intn(6), 1+2*r.Intn(2) // 1x1 or 3x3
		opts := Conv2DOptions{Stride: 1 + r.Intn(2), Padding: r.Intn(2)}
		if h+2*opts.Padding < k || w+2*opts.Padding < k {
			continue
		}
		samples := make([]*Tensor, batch)
		for n := range samples {
			samples[n] = randFilled(r, cin, h, w)
		}
		input := packAll(t, samples)
		kernels := randFilled(r, cout, cin, k, k)
		bias := randFilled(r, cout)

		want0, err := conv2D(samples[0], kernels, bias, opts)
		if err != nil {
			t.Fatal(err)
		}
		ws := want0.Shape()

		s.Reset()
		dst := s.Tensor(ws[0], batch, ws[1], ws[2])
		if err := Conv2DBatchedInto(dst, input, kernels, bias, opts, PostNone, s); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < batch; n++ {
			want, err := conv2D(samples[n], kernels, bias, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireKernelMatch(t, unpackOne(t, dst, n), want, "Conv2DBatched sample")
			serial, err := Conv2DSerial(samples[n], kernels, bias, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSerialMatch(t, want, serial, "Conv2DBatched batch of one")
		}
	}
}

func TestDenseBatchedMatchesMatVecBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		batch, in, out := 1+r.Intn(8), 1+r.Intn(30), 1+r.Intn(20)
		weights := randFilled(r, out, in)
		bias := randFilled(r, out)
		vecs := make([]*Tensor, batch)
		x := MustNew(in, batch)
		for n := range vecs {
			vecs[n] = randFilled(r, in)
			for f := 0; f < in; f++ {
				x.Set(vecs[n].At(f), f, n)
			}
		}
		y := MustNew(out, batch)
		if err := DenseBatchedInto(y, weights, x, bias); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < batch; n++ {
			want, err := matVec(weights, vecs[n])
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Add(bias); err != nil {
				t.Fatal(err)
			}
			got := MustNew(out)
			for o := 0; o < out; o++ {
				got.Set(y.At(o, n), o)
			}
			requireKernelMatch(t, got, want, "DenseBatched column")

			wantArg := want.ArgMax()
			gotArg, err := ColumnArgMax(y, n)
			if err != nil {
				t.Fatal(err)
			}
			if gotArg != wantArg {
				t.Fatalf("ColumnArgMax(%d) = %d, want %d", n, gotArg, wantArg)
			}
		}
	}
}

func TestBatchedPoolingAndDepthwiseMatchSingle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		batch, c, h, w := 1+r.Intn(6), 1+r.Intn(4), 4+r.Intn(8), 4+r.Intn(8)
		samples := make([]*Tensor, batch)
		for n := range samples {
			samples[n] = randFilled(r, c, h, w)
		}
		input := packAll(t, samples)

		kernels := randFilled(r, c, 3, 3)
		bias := randFilled(r, c)
		opts := Conv2DOptions{Stride: 1, Padding: 1}
		dwOut := MustNew(c, batch, h, w)
		if err := DepthwiseConv2DBatchedInto(dwOut, input, kernels, bias, opts, PostNone); err != nil {
			t.Fatal(err)
		}
		mpOut := MustNew(c, batch, h/2, w/2)
		if err := MaxPool2DBatchedInto(mpOut, input, 2, 2); err != nil {
			t.Fatal(err)
		}
		gapOut := MustNew(c, batch)
		if err := GlobalAvgPool2DBatchedInto(gapOut, input); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < batch; n++ {
			wantDW, err := depthwiseConv2D(samples[n], kernels, bias, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, unpackOne(t, dwOut, n), wantDW, "DepthwiseConv2DBatched sample")
			serialDW, err := DepthwiseConv2DSerial(samples[n], kernels, bias, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSerialMatch(t, wantDW, serialDW, "DepthwiseConv2DBatched batch of one")

			wantMP, err := MaxPool2DSerial(samples[n], 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, unpackOne(t, mpOut, n), wantMP, "MaxPool2DBatched sample")

			wantGAP, err := GlobalAvgPool2DSerial(samples[n])
			if err != nil {
				t.Fatal(err)
			}
			gotGAP := MustNew(c)
			for ch := 0; ch < c; ch++ {
				gotGAP.Set(gapOut.At(ch, n), ch)
			}
			requireBitIdentical(t, gotGAP, wantGAP, "GlobalAvgPool2DBatched sample")
		}
	}
}

// TestFusedPostOpsMatchSeparatePasses: the fused panel epilogues must equal
// applying ReLU/ReLU6 (and the fused residual add) as separate passes.
func TestFusedPostOpsMatchSeparatePasses(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	samples := []*Tensor{randFilled(r, 3, 8, 8), randFilled(r, 3, 8, 8), randFilled(r, 3, 8, 8)}
	input := packAll(t, samples)
	kernels := randFilled(r, 4, 3, 3, 3)
	bias := randFilled(r, 4)
	opts := Conv2DOptions{Stride: 1, Padding: 1}

	fused := MustNew(4, 3, 8, 8)
	if err := Conv2DBatchedInto(fused, input, kernels, bias, opts, PostReLU, nil); err != nil {
		t.Fatal(err)
	}
	plain := MustNew(4, 3, 8, 8)
	if err := Conv2DBatchedInto(plain, input, kernels, bias, opts, PostNone, nil); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, fused, ReLU(plain), "fused conv ReLU")

	dwK := randFilled(r, 3, 3, 3)
	dwB := randFilled(r, 3)
	dwFused := MustNew(3, 3, 8, 8)
	if err := DepthwiseConv2DBatchedInto(dwFused, input, dwK, dwB, opts, PostReLU6); err != nil {
		t.Fatal(err)
	}
	dwPlain := MustNew(3, 3, 8, 8)
	if err := DepthwiseConv2DBatchedInto(dwPlain, input, dwK, dwB, opts, PostNone); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, dwFused, ReLU6Serial(dwPlain), "fused depthwise ReLU6")

	a := randFilled(r, 2, 10)
	bT := randFilled(r, 2, 10)
	fusedAdd := a.Clone()
	if err := AddThenReLU(fusedAdd, bT); err != nil {
		t.Fatal(err)
	}
	plainAdd := a.Clone()
	if err := plainAdd.Add(bT); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, fusedAdd, ReLU(plainAdd), "fused add+ReLU")
}

// TestGemmPanelingMatchesSerial drives the column-paneled GEMM well past the
// panel width and checks it against the serial reference.
func TestGemmPanelingMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	a := randFilled(r, 9, 300)
	bm := randFilled(r, 300, 4100) // k*n*4 far beyond gemmPanelBytes
	got, err := matMul(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMulSerial(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	requireKernelMatch(t, got, want, "paneled GEMM")
}
