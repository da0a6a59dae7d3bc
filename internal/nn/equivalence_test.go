package nn

import (
	"math"
	"math/rand"
	"testing"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// randSample fills a fresh tensor of the given per-sample shape with normal
// values.
func randSample(r *rand.Rand, shape []int) *tensor.Tensor {
	t := tensor.MustNew(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(r.NormFloat64())
	}
	return t
}

// poisoned returns an arena whose first pass hands out NaN-filled memory, so
// a layer that reads its output before writing it, or leaves part of it
// unwritten, cannot pass.
func poisoned() *tensor.Scratch {
	s := tensor.NewScratch()
	for pass := 0; pass < 2; pass++ { // grow the slab, then dirty it
		dirty := s.Floats(1 << 16)
		for i := range dirty {
			dirty[i] = float32(math.NaN())
		}
		s.Reset()
	}
	return s
}

// TestLayersMatchReference holds every layer type, Sequential and Residual to
// the equivalence contract: sample n of Forward on a batch of N equals
// Forward on a batch of one equals the naive per-sample reference, for batch
// sizes including one, on a dirty arena.
func TestLayersMatchReference(t *testing.T) {
	rng := stats.NewRNG(17)
	relu6Conv := NewConv("pw", 6, 5, 1, 1, 0, rng)
	relu6Conv.Relu6 = true
	linearConv := NewConv("head", 4, 7, 3, 1, 1, rng)
	linearConv.Relu = false
	cases := []struct {
		layer Layer
		in    []int
	}{
		{NewConv("c3x3", 3, 8, 3, 1, 1, rng), []int{3, 9, 7}},
		{NewConv("c3x3s2", 4, 6, 3, 2, 1, rng), []int{4, 10, 10}},
		{NewConv("c5x5", 2, 3, 5, 2, 2, rng), []int{2, 11, 8}},
		{relu6Conv, []int{6, 5, 5}}, // pointwise: the zero-copy im2col path
		{linearConv, []int{4, 6, 6}},
		{NewDepthwiseConv("dw", 5, 3, 1, 1, rng), []int{5, 8, 8}},
		{NewDepthwiseConv("dws2", 4, 3, 2, 1, rng), []int{4, 9, 9}},
		{NewDense("fc", 12, 7, false, rng), []int{12}},
		{NewDense("fc-relu", 9, 4, true, rng), []int{9}},
		{NewMaxPool("mp", 2, 2), []int{3, 8, 6}},
		{NewMaxPool("mp3s1", 3, 1), []int{2, 5, 5}},
		{NewGlobalAvgPool("gap"), []int{6, 4, 5}},
		{NewSoftmax("sm"), []int{10}},
		{NewSequential("tiny",
			NewConv("c1", 2, 4, 3, 1, 1, rng),
			NewMaxPool("p1", 2, 2),
			NewDepthwiseConv("dw", 4, 3, 1, 1, rng),
			NewGlobalAvgPool("gap"),
			NewDense("fc", 4, 6, false, rng),
			NewSoftmax("sm"),
		), []int{2, 8, 8}},
		{NewResidual("res", NewSequential("body",
			NewConv("c1", 4, 4, 3, 1, 1, rng),
			NewConv("c2", 4, 4, 3, 1, 1, rng),
		)), []int{4, 6, 6}},
		{NewSequential("res-stack",
			NewConv("stem", 3, 4, 3, 1, 1, rng),
			NewResidual("r1", NewConv("rc", 4, 4, 3, 1, 1, rng)),
			NewGlobalAvgPool("gap"),
		), []int{3, 7, 7}},
	}
	r := rand.New(rand.NewSource(29))
	for _, tc := range cases {
		t.Run(tc.layer.Name(), func(t *testing.T) {
			wantShape, err := tc.layer.OutputShape(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 3, 5} {
				samples := make([]*tensor.Tensor, batch)
				for n := range samples {
					samples[n] = randSample(r, tc.in)
				}
				out, err := tc.layer.Forward(packBatch(t, samples), poisoned())
				if err != nil {
					t.Fatal(err)
				}
				for n, sample := range samples {
					got := unpackSample(t, out, n)
					if s := got.Shape(); len(s) != len(wantShape) {
						t.Fatalf("batch %d sample %d: shape %v, OutputShape says %v", batch, n, s, wantShape)
					}
					one, err := forwardOne(t, tc.layer, sample)
					if err != nil {
						t.Fatal(err)
					}
					requireBatchMatch(t, got, one, "batch of N vs batch of one")
					ref, err := refForward(tc.layer, sample)
					if err != nil {
						t.Fatal(err)
					}
					requireRefMatch(t, one, ref, "batch of one vs reference")
					for i, d := range wantShape {
						if ref.Dim(i) != d {
							t.Fatalf("reference shape %v, OutputShape says %v", ref.Shape(), wantShape)
						}
					}
				}
			}
		})
	}
}

// TestForwardOnRecycledArenaIsStable: repeated passes over one recycled
// arena, including a different batch geometry in between, reproduce the first
// pass bit for bit.
func TestForwardOnRecycledArenaIsStable(t *testing.T) {
	rng := stats.NewRNG(23)
	net := NewSequential("net",
		NewConv("stem", 3, 8, 3, 1, 1, rng),
		NewResidual("r1", NewSequential("body",
			NewConv("c1", 8, 8, 3, 1, 1, rng),
			NewConv("c2", 8, 8, 3, 1, 1, rng),
		)),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 8, 5, false, rng),
	)
	r := rand.New(rand.NewSource(31))
	samples := make([]*tensor.Tensor, 6)
	for n := range samples {
		samples[n] = randSample(r, []int{3, 8, 8})
	}
	s := tensor.NewScratch()
	var first *tensor.Tensor
	for pass := 0; pass < 4; pass++ {
		s.Reset()
		group := samples
		if pass == 2 {
			group = samples[:4] // a different geometry on the same arena
		}
		out, err := net.Forward(packBatch(t, group), s)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			first = out.Clone()
			continue
		}
		for n := range group {
			requireMatch(t, unpackSample(t, out, n), unpackSample(t, first, n), "recycled arena pass", true)
		}
	}
}
