package model

import (
	"fmt"

	"mlperf/internal/dataset"
	"mlperf/internal/nn"
	"mlperf/internal/tensor"
)

// The translator's architecture: embedding width, LSTM hidden size, stacked
// encoder and decoder layers, and the longest decoded sentence.
const (
	gnmtEmbedDim      = 16
	gnmtHiddenSize    = 32
	gnmtEncoderLayers = 2
	gnmtDecoderLayers = 2
	gnmtMaxLen        = 24
)

// newGNMT builds the miniature recurrent encoder–decoder translator. Each
// micro-batch decodes as one greedy pass: every recurrent step runs the
// active sentences through one GEMM per weight matrix, with finished
// sentences compacting out of the batch (nn.Seq2Seq.TranslateBatch). Ragged
// decoding lengths therefore cost only the steps they use, and a sentence's
// tokens do not depend on its batch.
func newGNMT(info Info, cfg Config) (*network, error) {
	if cfg.Vocab < 8 {
		return nil, fmt.Errorf("translator vocabulary must hold at least 8 tokens, got %d", cfg.Vocab)
	}
	net, err := nn.NewSeq2Seq("gnmt-mini", nn.Seq2SeqConfig{
		SrcVocab: cfg.Vocab, DstVocab: cfg.Vocab,
		EmbedDim: gnmtEmbedDim, HiddenSize: gnmtHiddenSize,
		EncoderLayers: gnmtEncoderLayers, DecoderLayers: gnmtDecoderLayers,
		MaxLen: gnmtMaxLen, Seed: cfg.Seed ^ 0x69273,
	})
	if err != nil {
		return nil, err
	}
	info.Params = net.ParamCount()
	info.OpsPerInput = net.OpsPerToken() * gnmtMaxLen

	weights := []*tensor.Tensor{net.SrcEmbed.Weights, net.DstEmbed.Weights}
	for _, stack := range [][]*nn.LSTMCell{net.Encoder, net.Decoder} {
		for _, c := range stack {
			weights = append(weights, c.Wx, c.Wh, c.Bias)
		}
	}
	weights = append(weights, net.Output.Weights, net.Output.Bias)

	step := func(group []*dataset.Sample, out []Output, s *tensor.Scratch) error {
		srcs := make([][]int, len(group))
		for i, sample := range group {
			if sample == nil || sample.Tokens == nil {
				return fmt.Errorf("model %s: sample %d carries no tokens", info.Name, i)
			}
			srcs[i] = sample.Tokens
		}
		translated, err := net.TranslateBatch(srcs, s)
		if err != nil {
			return err
		}
		for i, tokens := range translated {
			out[i] = Output{Kind: dataset.KindTranslation, Tokens: tokens}
		}
		return nil
	}
	return &network{info: info, kind: dataset.KindTranslation, weights: weights, footprint: stepFootprintBytes(net), step: step}, nil
}

// stepFootprintBytes estimates the per-sentence working set of one batched
// decoder step: destination embedding, attention context, their
// concatenation, each decoder cell's gate buffers and fresh states, the
// output logits and the attention score vector. The recurrent stack's
// footprint is per step, not per layer-activation as in the CNNs, and it is
// small — which is exactly why the translator batches deep.
func stepFootprintBytes(net *nn.Seq2Seq) int {
	h := net.HiddenSize
	e := net.DstEmbed.Dim
	elems := e + h + (e + h) + // embedding, context, concatenated step input
		len(net.Decoder)*(8*h+2*h) + // gate buffers (Wx·x, Wh·h) and new h/c per cell
		net.DstEmbed.Vocab + // logits column
		net.MaxLen // attention scores over the longest source
	return 4 * elems
}
