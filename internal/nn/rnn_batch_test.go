package nn

import (
	"math/rand"
	"testing"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// TestStepBatchMatchesReference: every column of a step over N sequences must
// equal the naive reference step on that column's vectors, for batch sizes
// including one, and stay inside tanh's range.
func TestStepBatchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cell := NewLSTMCell("lstm", 6, 9, stats.NewRNG(3))
	for _, batch := range []int{1, 2, 7} {
		xs := make([]*tensor.Tensor, batch)
		hs := make([]*tensor.Tensor, batch)
		cs := make([]*tensor.Tensor, batch)
		for j := 0; j < batch; j++ {
			xs[j], hs[j], cs[j] = randSample(r, []int{6}), randSample(r, []int{9}), randSample(r, []int{9})
		}
		hB, cB, err := cell.StepBatch(packBatch(t, xs), packBatch(t, hs), packBatch(t, cs), poisoned())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < batch; j++ {
			hS, cS := refLSTMStep(cell, xs[j], hs[j], cs[j])
			requireRefMatch(t, unpackSample(t, hB, j), hS, "hidden state column")
			requireRefMatch(t, unpackSample(t, cB, j), cS, "cell state column")
			for _, v := range unpackSample(t, hB, j).Data() {
				if v < -1 || v > 1 {
					t.Fatalf("hidden state out of tanh range: %v", v)
				}
			}
		}
	}
}

func TestStepBatchShapeErrors(t *testing.T) {
	cell := NewLSTMCell("lstm", 4, 8, stats.NewRNG(1))
	x := tensor.MustNew(4, 3)
	h := tensor.MustNew(8, 3)
	c := tensor.MustNew(8, 3)
	s := tensor.NewScratch()
	if _, _, err := cell.StepBatch(tensor.MustNew(5, 3), h, c, s); err == nil {
		t.Error("wrong input rows: expected error")
	}
	if _, _, err := cell.StepBatch(x, tensor.MustNew(8, 2), c, s); err == nil {
		t.Error("state column mismatch: expected error")
	}
	if _, _, err := cell.StepBatch(x, tensor.MustNew(7, 3), c, s); err == nil {
		t.Error("state row mismatch: expected error")
	}
}

func TestLookupBatchGathersEmbeddingRows(t *testing.T) {
	e := NewEmbedding("emb", 12, 5, stats.NewRNG(2))
	if e.ParamCount() != 60 {
		t.Errorf("params = %d", e.ParamCount())
	}
	s := tensor.NewScratch()
	tokens := []int{3, 0, 11, 3}
	out, err := e.LookupBatch(tokens, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 5 || out.Dim(1) != len(tokens) {
		t.Fatalf("batch lookup shape %v", out.Shape())
	}
	for j, tok := range tokens {
		v, err := refEmbed(e, tok)
		if err != nil {
			t.Fatal(err)
		}
		got := unpackSample(t, out, j).Data()
		for i := range got {
			if got[i] != v.Data()[i] {
				t.Fatalf("token %d dim %d: %v vs %v", tok, i, got[i], v.Data()[i])
			}
		}
	}
	if _, err := e.LookupBatch([]int{12}, s); err == nil {
		t.Error("out-of-vocabulary token: expected error")
	}
	if _, err := e.LookupBatch([]int{-1}, s); err == nil {
		t.Error("negative token: expected error")
	}
	if _, err := e.LookupBatch(nil, s); err == nil {
		t.Error("empty batch: expected error")
	}
}

// TestTranslateBatchMatchesReference pins the greedy decoder to the naive
// per-sentence reference, token for token, across ragged lengths and batch
// sizes including one, on one recycled arena.
func TestTranslateBatchMatchesReference(t *testing.T) {
	m, err := NewSeq2Seq("gnmt-mini", Seq2SeqConfig{
		SrcVocab: 32, DstVocab: 32, EmbedDim: 8, HiddenSize: 16,
		EncoderLayers: 2, DecoderLayers: 2, MaxLen: 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	sc := poisoned()
	for _, batch := range []int{1, 2, 5, 9} {
		srcs := make([][]int, batch)
		for i := range srcs {
			srcs[i] = make([]int, 1+r.Intn(10))
			for j := range srcs[i] {
				srcs[i][j] = 2 + r.Intn(30)
			}
		}
		sc.Reset()
		got, err := m.TranslateBatch(srcs, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != batch {
			t.Fatalf("batch %d: %d outputs", batch, len(got))
		}
		for i, src := range srcs {
			want, err := refTranslate(m, src)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[i]) != len(want) {
				t.Fatalf("batch %d sentence %d: %v vs reference %v", batch, i, got[i], want)
			}
			for k := range want {
				if got[i][k] != want[k] {
					t.Fatalf("batch %d sentence %d token %d: %d vs %d", batch, i, k, got[i][k], want[k])
				}
			}
		}
	}
}

func TestTranslateBatchErrors(t *testing.T) {
	m, err := NewSeq2Seq("ok", Seq2SeqConfig{SrcVocab: 16, DstVocab: 16, EmbedDim: 4, HiddenSize: 8, EncoderLayers: 1, DecoderLayers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := tensor.NewScratch()
	if out, err := m.TranslateBatch(nil, s); err != nil || out != nil {
		t.Errorf("empty batch: got %v, %v", out, err)
	}
	if _, err := m.TranslateBatch([][]int{{3}, {}}, s); err == nil {
		t.Error("empty sentence in batch: expected error")
	}
	if _, err := m.TranslateBatch([][]int{{}}, s); err == nil {
		t.Error("empty sentence alone: expected error")
	}
	if _, err := m.TranslateBatch([][]int{{3}, {99}}, s); err == nil {
		t.Error("out-of-vocabulary source: expected error")
	}
	if _, err := m.TranslateBatch([][]int{{99}}, s); err == nil {
		t.Error("out-of-vocabulary source alone: expected error")
	}
}
