package nn

import (
	"testing"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

func TestLSTMCellMetadata(t *testing.T) {
	cell := NewLSTMCell("lstm", 4, 8, stats.NewRNG(1))
	if cell.ParamCount() != int64(4*8*4+4*8*8+4*8) {
		t.Errorf("param count = %d", cell.ParamCount())
	}
	if cell.OpsPerStep() <= 0 {
		t.Error("ops per step must be positive")
	}
}

func TestLSTMDeterminism(t *testing.T) {
	run := func() *tensor.Tensor {
		cell := NewLSTMCell("lstm", 3, 5, stats.NewRNG(7))
		s := tensor.NewScratch()
		x := tensor.MustNew(3, 1)
		x.Fill(1)
		h := tensor.MustNew(5, 1)
		c := tensor.MustNew(5, 1)
		for i := 0; i < 10; i++ {
			var err error
			if h, c, err = cell.StepBatch(x, h, c, s); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	if !tensor.Equalish(run(), run(), 0) {
		t.Error("LSTM runs with identical seeds diverge")
	}
}

func TestSeq2SeqTranslate(t *testing.T) {
	m, err := NewSeq2Seq("gnmt-mini", Seq2SeqConfig{
		SrcVocab: 32, DstVocab: 32, EmbedDim: 8, HiddenSize: 16,
		EncoderLayers: 2, DecoderLayers: 2, MaxLen: 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ParamCount() <= 0 || m.OpsPerToken() <= 0 {
		t.Error("expected positive params and ops")
	}
	s := tensor.NewScratch()
	outs, err := m.TranslateBatch([][]int{{5, 9, 3, 7}}, s)
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	if len(out) > m.MaxLen {
		t.Errorf("translation longer than MaxLen: %d", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= 32 {
			t.Errorf("token %d outside vocabulary", tok)
		}
	}
	// Determinism: same input on the recycled arena yields the same output.
	s.Reset()
	outs2, err := m.TranslateBatch([][]int{{5, 9, 3, 7}}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(outs2[0]) {
		t.Fatalf("non-deterministic translation: %v vs %v", out, outs2[0])
	}
	for i := range out {
		if out[i] != outs2[0][i] {
			t.Fatalf("non-deterministic translation at %d", i)
		}
	}
}

func TestSeq2SeqConfigErrors(t *testing.T) {
	if _, err := NewSeq2Seq("bad", Seq2SeqConfig{SrcVocab: 2, DstVocab: 32, EmbedDim: 8, HiddenSize: 8, EncoderLayers: 1, DecoderLayers: 1}); err == nil {
		t.Error("tiny vocab: expected error")
	}
	if _, err := NewSeq2Seq("bad", Seq2SeqConfig{SrcVocab: 32, DstVocab: 32, EmbedDim: 0, HiddenSize: 8, EncoderLayers: 1, DecoderLayers: 1}); err == nil {
		t.Error("zero embed dim: expected error")
	}
}
