package nn

import (
	"fmt"
	"math"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

// LSTMCell is a single long short-term memory cell. It processes one time
// step of a batch of sequences: given the input vectors and the previous
// hidden and cell states, it produces new hidden and cell states (StepBatch).
type LSTMCell struct {
	name       string
	InputSize  int
	HiddenSize int
	// Wx and Wh hold the four gate weight blocks (input, forget, cell, output)
	// stacked along the output dimension: shape (4*hidden) × input and
	// (4*hidden) × hidden respectively.
	Wx   *tensor.Tensor
	Wh   *tensor.Tensor
	Bias *tensor.Tensor // 4*hidden
}

// NewLSTMCell constructs an LSTM cell with deterministic weights from rng.
func NewLSTMCell(name string, inputSize, hiddenSize int, rng *stats.RNG) *LSTMCell {
	wx := tensor.MustNew(4*hiddenSize, inputSize)
	wh := tensor.MustNew(4*hiddenSize, hiddenSize)
	initHe(wx, float64(inputSize), rng)
	initHe(wh, float64(hiddenSize), rng)
	bias := tensor.MustNew(4 * hiddenSize)
	// Standard trick: bias the forget gate positive so early state persists.
	for i := hiddenSize; i < 2*hiddenSize; i++ {
		bias.Data()[i] = 1
	}
	return &LSTMCell{name: name, InputSize: inputSize, HiddenSize: hiddenSize, Wx: wx, Wh: wh, Bias: bias}
}

// Name returns the cell's identifier.
func (c *LSTMCell) Name() string { return c.name }

// ParamCount returns the number of learned parameters.
func (c *LSTMCell) ParamCount() int64 {
	return int64(c.Wx.Len() + c.Wh.Len() + c.Bias.Len())
}

// OpsPerStep returns the multiply-accumulate-equivalent operations per time
// step.
func (c *LSTMCell) OpsPerStep() int64 {
	return 2*int64(c.Wx.Len()) + 2*int64(c.Wh.Len()) + 8*int64(c.HiddenSize)
}

// sigmoid is the logistic function with float32 in, float64 math and float32
// out.
func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// tanh rounds like sigmoid.
func tanh(v float32) float32 {
	return float32(math.Tanh(float64(v)))
}

// Embedding maps token ids to dense vectors.
type Embedding struct {
	name    string
	Vocab   int
	Dim     int
	Weights *tensor.Tensor // vocab × dim
}

// NewEmbedding constructs an embedding table with deterministic weights.
func NewEmbedding(name string, vocab, dim int, rng *stats.RNG) *Embedding {
	w := tensor.MustNew(vocab, dim)
	initHe(w, float64(dim), rng)
	return &Embedding{name: name, Vocab: vocab, Dim: dim, Weights: w}
}

// ParamCount returns the number of learned parameters.
func (e *Embedding) ParamCount() int64 { return int64(e.Weights.Len()) }

// Seq2Seq is a GNMT-style recurrent encoder–decoder with dot-product
// attention. It translates sequences of source-token ids into sequences of
// target-token ids with greedy decoding (TranslateBatch).
type Seq2Seq struct {
	name       string
	SrcEmbed   *Embedding
	DstEmbed   *Embedding
	Encoder    []*LSTMCell
	Decoder    []*LSTMCell
	Output     *Dense // hidden -> target vocabulary logits
	HiddenSize int
	BOS, EOS   int
	MaxLen     int
}

// Seq2SeqConfig configures NewSeq2Seq.
type Seq2SeqConfig struct {
	SrcVocab      int
	DstVocab      int
	EmbedDim      int
	HiddenSize    int
	EncoderLayers int
	DecoderLayers int
	MaxLen        int
	Seed          uint64
}

// NewSeq2Seq constructs the encoder–decoder model.
func NewSeq2Seq(name string, cfg Seq2SeqConfig) (*Seq2Seq, error) {
	if cfg.SrcVocab < 4 || cfg.DstVocab < 4 {
		return nil, fmt.Errorf("nn: seq2seq vocabularies must hold at least BOS/EOS plus tokens")
	}
	if cfg.EmbedDim <= 0 || cfg.HiddenSize <= 0 || cfg.EncoderLayers <= 0 || cfg.DecoderLayers <= 0 {
		return nil, fmt.Errorf("nn: seq2seq dimensions must be positive: %+v", cfg)
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 32
	}
	rng := stats.NewRNG(cfg.Seed)
	m := &Seq2Seq{
		name:       name,
		SrcEmbed:   NewEmbedding(name+"/src_embed", cfg.SrcVocab, cfg.EmbedDim, rng),
		DstEmbed:   NewEmbedding(name+"/dst_embed", cfg.DstVocab, cfg.EmbedDim, rng),
		HiddenSize: cfg.HiddenSize,
		BOS:        0,
		EOS:        1,
		MaxLen:     cfg.MaxLen,
	}
	for i := 0; i < cfg.EncoderLayers; i++ {
		in := cfg.EmbedDim
		if i > 0 {
			in = cfg.HiddenSize
		}
		m.Encoder = append(m.Encoder, NewLSTMCell(fmt.Sprintf("%s/enc%d", name, i), in, cfg.HiddenSize, rng))
	}
	for i := 0; i < cfg.DecoderLayers; i++ {
		in := cfg.EmbedDim + cfg.HiddenSize // embedding concatenated with attention context
		if i > 0 {
			in = cfg.HiddenSize
		}
		m.Decoder = append(m.Decoder, NewLSTMCell(fmt.Sprintf("%s/dec%d", name, i), in, cfg.HiddenSize, rng))
	}
	m.Output = NewDense(name+"/proj", cfg.HiddenSize, cfg.DstVocab, false, rng)
	return m, nil
}

// Name returns the model's identifier.
func (m *Seq2Seq) Name() string { return m.name }

// ParamCount returns the total number of learned parameters.
func (m *Seq2Seq) ParamCount() int64 {
	total := m.SrcEmbed.ParamCount() + m.DstEmbed.ParamCount() + m.Output.ParamCount()
	for _, c := range m.Encoder {
		total += c.ParamCount()
	}
	for _, c := range m.Decoder {
		total += c.ParamCount()
	}
	return total
}

// OpsPerToken estimates multiply-accumulate-equivalent operations per output
// token (encoder amortized over a typical sentence plus decoder and
// attention).
func (m *Seq2Seq) OpsPerToken() int64 {
	var ops int64
	for _, c := range m.Encoder {
		ops += c.OpsPerStep()
	}
	for _, c := range m.Decoder {
		ops += c.OpsPerStep()
	}
	ops += 2 * int64(m.Output.Weights.Len())
	ops += 4 * int64(m.HiddenSize) * int64(m.MaxLen) // attention scores + context
	return ops
}
