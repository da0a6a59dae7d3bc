package model

import (
	"encoding/json"
	"os"
	"testing"

	"mlperf/internal/dataset"
	"mlperf/internal/metrics"
	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// The golden outputs in testdata/parent_single_sample_golden.json were
// recorded at the last commit that still had a single-sample forward path
// (Classify / Detect / Translate over Conv2DInto, ForwardScratch and the
// serial LSTM step), from the models and inputs goldenCases builds. Predict
// must reproduce them bit for bit — box coordinates and scores included —
// whatever the batch shape: that is what made deleting that path safe, and
// what keeps later kernel work from drifting away from it.

type goldenOutput struct {
	Class  int           `json:",omitempty"`
	Boxes  []metrics.Box `json:",omitempty"`
	Tokens []int         `json:",omitempty"`
}

const (
	goldenSeed    = 42
	goldenSamples = 11
)

// goldenImages draws n CHW images from seed.
func goldenImages(seed uint64, n int, shape []int) []*dataset.Sample {
	rng := stats.NewRNG(seed)
	out := make([]*dataset.Sample, n)
	for i := range out {
		img := tensor.MustNew(shape...)
		data := img.Data()
		for j := range data {
			data[j] = float32(rng.NormFloat64())
		}
		out[i] = &dataset.Sample{Index: i, Image: img}
	}
	return out
}

// goldenSentences draws n ragged token sentences from seed.
func goldenSentences(seed uint64, n, vocab, maxLen int) []*dataset.Sample {
	rng := stats.NewRNG(seed)
	out := make([]*dataset.Sample, n)
	for i := range out {
		tokens := make([]int, 1+rng.Intn(maxLen))
		for j := range tokens {
			tokens[j] = 2 + rng.Intn(vocab-2)
		}
		out[i] = &dataset.Sample{Index: i, Tokens: tokens}
	}
	return out
}

// goldenCase is one model with its golden inputs and its per-sample
// activation footprint (to pin the micro-batch size).
type goldenCase struct {
	engine    Engine
	footprint int
	samples   []*dataset.Sample
}

// goldenCases builds the five suite models plus resnet50-wide exactly as the
// recording did.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, name := range []Name{ResNet50, MobileNetV1, ResNet50Wide, SSDResNet34, SSDMobileNet, GNMT} {
		cfg, samples := Config{Classes: 10, ImageSize: 16, Seed: goldenSeed}, goldenImages(goldenSeed+1, goldenSamples, imageCHW)
		switch name {
		case SSDResNet34, SSDMobileNet:
			cfg, samples = Config{Classes: 5, ImageSize: 16, Seed: goldenSeed, ScoreThreshold: 0.1}, goldenImages(goldenSeed+2, goldenSamples, imageCHW)
		case GNMT:
			cfg, samples = Config{Vocab: 64, Seed: goldenSeed}, goldenSentences(goldenSeed+3, goldenSamples, 64, 12)
		}
		m, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{m, m.(*network).footprint, samples})
	}
	return cases
}

func TestPredictMatchesParentSingleSampleGoldens(t *testing.T) {
	if tensor.ActiveSIMD() == tensor.SIMDFMA {
		t.Skip("the opt-in FMA tier rounds fused multiply-adds once; the goldens pin the bit-exact tiers")
	}
	raw, err := os.ReadFile("testdata/parent_single_sample_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]goldenOutput
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases(t) {
		t.Run(tc.engine.Name(), func(t *testing.T) {
			recorded := golden[tc.engine.Name()]
			if len(recorded) != goldenSamples {
				t.Fatalf("golden file has %d outputs for %s, want %d", len(recorded), tc.engine.Name(), goldenSamples)
			}
			want := make([]Output, len(recorded))
			for i, g := range recorded {
				want[i] = Output{Kind: tc.engine.Kind(), Class: g.Class, Boxes: g.Boxes, Tokens: g.Tokens}
			}

			// Batch of one, pooled arena.
			requireSameOutputs(t, predictSingles(t, tc.engine, tc.samples), want, "batch of one")

			// A ragged batch larger than the micro-batch: pinning the cache
			// budget to 4.5 footprints makes the micro-batch 4, so the 11
			// samples run as 4 + 4 + 3.
			defer setMicroBatchCacheBudgetForTest(4*tc.footprint + tc.footprint/2)()
			if mb := tc.engine.(BatchSizer).PreferredBatch(); mb != 4 {
				t.Fatalf("micro-batch = %d, want 4", mb)
			}
			got, err := tc.engine.Predict(tc.samples, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameOutputs(t, got, want, "ragged batch over the micro-batch")

			// One recycled caller arena across passes of different geometry.
			s := tensor.NewScratch()
			for _, n := range []int{goldenSamples, 1, 7, goldenSamples} {
				s.Reset()
				got, err := tc.engine.Predict(tc.samples[:n], s)
				if err != nil {
					t.Fatal(err)
				}
				requireSameOutputs(t, got, want[:n], "recycled arena")
			}
		})
	}
}
