package model

import (
	"math"
	"math/rand"
	"testing"

	"mlperf/internal/dataset"
	"mlperf/internal/tensor"
)

// imageCHW is the input shape of every vision model built at ImageSize 16.
var imageCHW = []int{imageChannels, 16, 16}

// randSamples builds n random CHW image samples matching shape.
func randSamples(r *rand.Rand, n int, shape []int) []*dataset.Sample {
	out := make([]*dataset.Sample, n)
	for i := range out {
		img := tensor.MustNew(shape...)
		data := img.Data()
		for j := range data {
			data[j] = float32(r.NormFloat64())
		}
		out[i] = &dataset.Sample{Index: i, Image: img}
	}
	return out
}

// requireSameOutputs asserts two output slices are bit-identical predictions.
func requireSameOutputs(t *testing.T, got, want []Output, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Class != w.Class {
			t.Fatalf("%s: output %d = %+v, want %+v", label, i, g, w)
		}
		if len(g.Boxes) != len(w.Boxes) {
			t.Fatalf("%s: output %d has %d boxes, want %d", label, i, len(g.Boxes), len(w.Boxes))
		}
		for b := range g.Boxes {
			gb, wb := g.Boxes[b], w.Boxes[b]
			if gb.Class != wb.Class ||
				math.Float64bits(gb.Score) != math.Float64bits(wb.Score) ||
				math.Float64bits(gb.X1) != math.Float64bits(wb.X1) ||
				math.Float64bits(gb.Y1) != math.Float64bits(wb.Y1) ||
				math.Float64bits(gb.X2) != math.Float64bits(wb.X2) ||
				math.Float64bits(gb.Y2) != math.Float64bits(wb.Y2) {
				t.Fatalf("%s: output %d box %d differs bit-for-bit: %+v vs %+v", label, i, b, gb, wb)
			}
		}
		if len(g.Tokens) != len(w.Tokens) {
			t.Fatalf("%s: output %d has %d tokens, want %d", label, i, len(g.Tokens), len(w.Tokens))
		}
		for tk := range g.Tokens {
			if g.Tokens[tk] != w.Tokens[tk] {
				t.Fatalf("%s: output %d token %d differs", label, i, tk)
			}
		}
	}
}

// predictSingles runs Predict once per sample and concatenates the results —
// what Predict on any batch must match bit for bit. (The batch of one is
// itself pinned to golden outputs in golden_test.go and to the naive
// reference forward in internal/nn.)
func predictSingles(t *testing.T, e Engine, samples []*dataset.Sample) []Output {
	t.Helper()
	var out []Output
	for _, s := range samples {
		one, err := e.Predict([]*dataset.Sample{s}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, one...)
	}
	return out
}

func TestClassifierBatchMatchesSingles(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for label, name := range map[string]Name{"resnet50": ResNet50, "mobilenet": MobileNetV1, "wide": ResNet50Wide} {
		t.Run(label, func(t *testing.T) {
			m, err := New(name, Config{Classes: 10, ImageSize: 16, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			// Ragged sizes including 1 and a non-divisor final batch.
			for _, batch := range []int{1, 3, 8, 5} {
				samples := randSamples(r, batch, imageCHW)
				got, err := m.Predict(samples, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := predictSingles(t, m, samples)
				requireSameOutputs(t, got, want, label)
			}
		})
	}
}

func TestDetectorBatchMatchesSingles(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for label, name := range map[string]Name{"ssd-resnet34": SSDResNet34, "ssd-mobilenet": SSDMobileNet} {
		t.Run(label, func(t *testing.T) {
			d, err := New(name, Config{Classes: 5, ImageSize: 16, Seed: 6, ScoreThreshold: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 4, 7} {
				samples := randSamples(r, batch, imageCHW)
				got, err := d.Predict(samples, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := predictSingles(t, d, samples)
				requireSameOutputs(t, got, want, label)
			}
		})
	}
}

func TestPredictOnRecycledScratchIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	m, err := New(ResNet50, Config{Classes: 10, ImageSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	samples := randSamples(r, 6, imageCHW)
	s := tensor.NewScratch()
	var first []Output
	for pass := 0; pass < 3; pass++ {
		s.Reset()
		got, err := m.Predict(samples, s)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			first = got
			continue
		}
		requireSameOutputs(t, got, first, "recycled scratch pass")
	}
	// Different batch geometry on the same arena must not corrupt results.
	s.Reset()
	ragged, err := m.Predict(samples[:4], s)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutputs(t, ragged, first[:4], "ragged batch on recycled arena")
}

// TestTranslateGoldenOutputs pins GNMT greedy decoding to outputs recorded
// from the original heap-allocating serial decoder: neither the arena nor
// batching may change a single token.
func TestTranslateGoldenOutputs(t *testing.T) {
	g, err := New(GNMT, Config{Vocab: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]int{
		"5,9,3":        {4, 4, 54, 54, 54, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32},
		"7,2,2,8":      {51, 0, 27, 27, 27, 22, 22, 22, 27, 27, 27, 27, 27, 27, 27, 27, 29, 29, 29, 29, 29, 29, 29, 29},
		"63,1,0,12,40": {12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 33, 4, 4, 33, 4, 33, 4, 4, 40, 40},
		"2":            {40, 55, 5, 50, 5, 5, 5, 5, 5, 5, 40, 40, 32, 32, 32, 32, 32, 33, 33, 32, 32, 32, 33, 5},
	}
	inputs := map[string][]int{
		"5,9,3":        {5, 9, 3},
		"7,2,2,8":      {7, 2, 2, 8},
		"63,1,0,12,40": {63, 1, 0, 12, 40},
		"2":            {2},
	}
	for key, src := range inputs {
		outs, err := g.Predict([]*dataset.Sample{{Tokens: src}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := outs[0].Tokens, golden[key]
		if len(got) != len(want) {
			t.Fatalf("src %s: %d tokens, want %d", key, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("src %s: token %d = %d, want %d", key, i, got[i], want[i])
			}
		}
	}
}

// randTextSamples builds n token samples with ragged lengths in [1, maxLen].
func randTextSamples(r *rand.Rand, n, vocab, maxLen int) []*dataset.Sample {
	out := make([]*dataset.Sample, n)
	for i := range out {
		tokens := make([]int, 1+r.Intn(maxLen))
		for j := range tokens {
			tokens[j] = 2 + r.Intn(vocab-2)
		}
		out[i] = &dataset.Sample{Index: i, Tokens: tokens}
	}
	return out
}

// TestGNMTBatchMatchesSingles: greedy decoding over ragged sentence lengths —
// including batches that span several micro-batches and the single-sentence
// batch — is bit-identical to N Predict calls on one sentence each.
func TestGNMTBatchMatchesSingles(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	g, err := New(GNMT, Config{Vocab: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{1, 2, 5, 9, g.(BatchSizer).PreferredBatch() + 3}
	for _, batch := range batches {
		samples := randTextSamples(r, batch, 64, 12)
		got, err := g.Predict(samples, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameOutputs(t, got, predictSingles(t, g, samples), "gnmt batch")
	}
}

// TestGNMTBatchAllFinishImmediately: rigging the output bias so EOS always
// wins makes every sentence finish on decode step 1; the batch must drain on
// that step and return empty translations, as each sentence alone does.
func TestGNMTBatchAllFinishImmediately(t *testing.T) {
	g, err := New(GNMT, Config{Vocab: 64, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	weights := g.Weights()
	outputBias := weights[len(weights)-1]
	outputBias.Data()[1] = 1000 // token 1 is EOS
	samples := []*dataset.Sample{
		{Index: 0, Tokens: []int{5, 9, 3}},
		{Index: 1, Tokens: []int{7}},
		{Index: 2, Tokens: []int{8, 2, 2, 8, 11}},
	}
	got, err := g.Predict(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range got {
		if len(out.Tokens) != 0 {
			t.Errorf("sentence %d produced %v, want empty", i, out.Tokens)
		}
	}
	requireSameOutputs(t, got, predictSingles(t, g, samples), "all-EOS batch")
}

// TestGNMTBatchOnRecycledScratchIsStable: repeated batched passes over one
// recycled arena, including a different batch geometry, must not perturb a
// single token.
func TestGNMTBatchOnRecycledScratchIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	g, err := New(GNMT, Config{Vocab: 64, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	samples := randTextSamples(r, 7, 64, 10)
	s := tensor.NewScratch()
	var first []Output
	for pass := 0; pass < 3; pass++ {
		s.Reset()
		got, err := g.Predict(samples, s)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			first = got
			continue
		}
		requireSameOutputs(t, got, first, "recycled arena pass")
	}
	s.Reset()
	ragged, err := g.Predict(samples[:3], s)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutputs(t, ragged, first[:3], "ragged batch on recycled arena")
	requireSameOutputs(t, first, predictSingles(t, g, samples), "arena passes vs singles")
}

// TestMicroBatchDerivation pins the footprint-derived micro-batch sizes: the
// heavyweight classifier keeps the previously tuned 8, lighter activations
// batch deeper, the wide model batches shallower, and the translator's tiny
// step state hits the cap. The cache budget is pinned to the historical
// 384 KiB so the assertions are machine-independent (the production budget is
// probed from the host's L2; see cachebudget.go).
func TestMicroBatchDerivation(t *testing.T) {
	defer setMicroBatchCacheBudgetForTest(defaultMicroBatchCacheBudget)()
	resnet, err := New(ResNet50, Config{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mobilenet, err := New(MobileNetV1, Config{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(ResNet50Wide, Config{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gnmt, err := New(GNMT, Config{Vocab: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resnet.(BatchSizer).PreferredBatch(); got != 8 {
		t.Errorf("resnet micro-batch = %d, want 8", got)
	}
	if got := mobilenet.(BatchSizer).PreferredBatch(); got <= resnet.(BatchSizer).PreferredBatch() {
		t.Errorf("mobilenet micro-batch = %d, want deeper than resnet's %d", got, resnet.(BatchSizer).PreferredBatch())
	}
	if got := wide.(BatchSizer).PreferredBatch(); got >= resnet.(BatchSizer).PreferredBatch() || got < 1 {
		t.Errorf("wide micro-batch = %d, want shallower than resnet's %d", got, resnet.(BatchSizer).PreferredBatch())
	}
	if got := gnmt.(BatchSizer).PreferredBatch(); got != microBatchCap {
		t.Errorf("gnmt micro-batch = %d, want the cap %d", got, microBatchCap)
	}
	det, err := New(SSDResNet34, Config{Classes: 5, ImageSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := det.(BatchSizer).PreferredBatch(); got < 1 {
		t.Errorf("detector micro-batch = %d", got)
	}
}

// TestWideModelWeightsExceedL2 pins the premise of the weight-streaming
// benchmark: the wide classifier's weights cannot be cache-resident.
func TestWideModelWeightsExceedL2(t *testing.T) {
	wide, err := New(ResNet50Wide, Config{Classes: 10, ImageSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes := weightBytes(wide.Weights()); bytes <= wideL2Budget {
		t.Fatalf("wide model weights = %d bytes, want > %d", bytes, wideL2Budget)
	}
	small, err := New(ResNet50, Config{Classes: 10, ImageSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if weightBytes(small.Weights()) >= weightBytes(wide.Weights()) {
		t.Error("wide model should carry more weight bytes than the mini ResNet")
	}
}

func TestPredictValidatesSamples(t *testing.T) {
	m, err := New(MobileNetV1, Config{Classes: 10, ImageSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]*dataset.Sample{{Index: 0}}, nil); err == nil {
		t.Error("nil image: expected error")
	}
	wrong := tensor.MustNew(3, 8, 8)
	if _, err := m.Predict([]*dataset.Sample{{Index: 0, Image: wrong}}, nil); err == nil {
		t.Error("wrong shape: expected error")
	}
	if out, err := m.Predict(nil, nil); err != nil || out != nil {
		t.Errorf("empty batch: got %v, %v", out, err)
	}
	if _, err := (Output{Kind: dataset.Kind(99)}).Encode(); err == nil {
		t.Error("unknown kind encode: expected error")
	}
}
