package model

import (
	"fmt"

	"mlperf/internal/nn"
	"mlperf/internal/tensor"
)

// TranslatorConfig configures the miniature GNMT-style translator.
type TranslatorConfig struct {
	Vocab         int
	EmbedDim      int
	HiddenSize    int
	EncoderLayers int
	DecoderLayers int
	MaxLen        int
	Seed          uint64
}

func (c *TranslatorConfig) normalize() error {
	if c.Vocab < 8 {
		return fmt.Errorf("model: translator vocabulary must hold at least 8 tokens, got %d", c.Vocab)
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 16
	}
	if c.HiddenSize <= 0 {
		c.HiddenSize = 32
	}
	if c.EncoderLayers <= 0 {
		c.EncoderLayers = 2
	}
	if c.DecoderLayers <= 0 {
		c.DecoderLayers = 2
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 24
	}
	return nil
}

// GNMTMini is the miniature recurrent encoder–decoder translation model.
type GNMTMini struct {
	info      Info
	net       *nn.Seq2Seq
	footprint int // per-sentence step-state bytes; micro-batch derives live
}

// NewGNMTMini builds the translator.
func NewGNMTMini(cfg TranslatorConfig) (*GNMTMini, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	net, err := nn.NewSeq2Seq("gnmt-mini", nn.Seq2SeqConfig{
		SrcVocab: cfg.Vocab, DstVocab: cfg.Vocab,
		EmbedDim: cfg.EmbedDim, HiddenSize: cfg.HiddenSize,
		EncoderLayers: cfg.EncoderLayers, DecoderLayers: cfg.DecoderLayers,
		MaxLen: cfg.MaxLen, Seed: cfg.Seed ^ 0x69273,
	})
	if err != nil {
		return nil, err
	}
	info, err := Describe(GNMT)
	if err != nil {
		return nil, err
	}
	info.Params = net.ParamCount()
	info.OpsPerInput = net.OpsPerToken() * int64(cfg.MaxLen)
	g := &GNMTMini{info: info, net: net}
	g.footprint = g.stepFootprintBytes()
	return g, nil
}

// stepFootprintBytes estimates the per-sentence working set of one batched
// decoder step: destination embedding, attention context, their
// concatenation, each decoder cell's gate buffers and fresh states, the
// output logits and the attention score vector. The recurrent stack's
// footprint is per step, not per layer-activation as in the CNNs, and it is
// small — which is exactly why the translator batches deep.
func (g *GNMTMini) stepFootprintBytes() int {
	h := g.net.HiddenSize
	e := g.net.DstEmbed.Dim
	elems := e + h + (e + h) + // embedding, context, concatenated step input
		len(g.net.Decoder)*(8*h+2*h) + // gate buffers (Wx·x, Wh·h) and new h/c per cell
		g.net.DstEmbed.Vocab + // logits column
		g.net.MaxLen // attention scores over the longest source
	return 4 * elems
}

// Info returns the model's metadata with Params and OpsPerInput filled in.
func (g *GNMTMini) Info() Info { return g.info }

// Weights implements WeightedModel.
func (g *GNMTMini) Weights() []*tensor.Tensor {
	var out []*tensor.Tensor
	out = append(out, g.net.SrcEmbed.Weights, g.net.DstEmbed.Weights)
	for _, c := range g.net.Encoder {
		out = append(out, c.Wx, c.Wh, c.Bias)
	}
	for _, c := range g.net.Decoder {
		out = append(out, c.Wx, c.Wh, c.Bias)
	}
	out = append(out, g.net.Output.Weights, g.net.Output.Bias)
	return out
}
