package nn

import (
	"fmt"

	"mlperf/internal/tensor"
)

// Recurrent inference. A batch of recurrent states or step inputs is
// FEATURE-MAJOR — a rank-2 [F, N] tensor, column n holding sequence n's
// vector — the same layout the CNN layers use for vector activations.
// Stacking states this way turns every per-step matrix–vector product into
// one GEMM over all active sequences:
//
//	gates = Wx × X  +  Wh × H  + bias     // [4H, N]: one packed GEMM per operand
//
// with the gate nonlinearities fused in the epilogue, so a step over N
// sequences streams the weight matrices once instead of N times. A column's
// values never depend on the batch around it: each output element accumulates
// exactly the same terms in exactly the same order regardless of batch size
// or column position (with N = 1 the GEMM degenerates to the serial
// matrix–vector loop), which is what lets greedy decoding compact finished
// sentences out of the batch (dropping columns never perturbs the survivors).

// StepBatch advances the cell by one time step for a whole batch of
// sequences. x is the step input [InputSize, N]; hPrev and cPrev are the
// previous states [HiddenSize, N]. The new states are allocated from s.
func (c *LSTMCell) StepBatch(x, hPrev, cPrev *tensor.Tensor, s *tensor.Scratch) (h, cState *tensor.Tensor, err error) {
	if x.Rank() != 2 || x.Dim(0) != c.InputSize {
		return nil, nil, fmt.Errorf("lstm %s: batch input shape %v, want [%d N]", c.name, x.Shape(), c.InputSize)
	}
	n := x.Dim(1)
	if hPrev.Rank() != 2 || hPrev.Dim(0) != c.HiddenSize || hPrev.Dim(1) != n ||
		cPrev.Rank() != 2 || cPrev.Dim(0) != c.HiddenSize || cPrev.Dim(1) != n {
		return nil, nil, fmt.Errorf("lstm %s: batch state shapes %v/%v, want [%d %d]", c.name, hPrev.Shape(), cPrev.Shape(), c.HiddenSize, n)
	}
	hs := c.HiddenSize
	// gates = Wx·X + Wh·H + bias, accumulated per element in the serial
	// reference's order: the input product first (from zero, ascending k),
	// then the recurrent product, then the bias.
	gx := s.Tensor(4*hs, n)
	if err := tensor.MatMulInto(gx, c.Wx, x); err != nil {
		return nil, nil, err
	}
	gh := s.Tensor(4*hs, n)
	if err := tensor.MatMulInto(gh, c.Wh, hPrev); err != nil {
		return nil, nil, err
	}
	if err := gx.Add(gh); err != nil {
		return nil, nil, err
	}
	gates := gx.Data()
	bias := c.Bias.Data()
	for r := 0; r < 4*hs; r++ {
		row := gates[r*n : (r+1)*n]
		bv := bias[r]
		for j := range row {
			row[j] += bv
		}
	}
	// Fused gate epilogue over the still-hot gate buffer.
	h = s.Tensor(hs, n)
	cState = s.Tensor(hs, n)
	hd, cd, cp := h.Data(), cState.Data(), cPrev.Data()
	for i := 0; i < hs; i++ {
		gi := gates[i*n : i*n+n]
		gf := gates[(hs+i)*n : (hs+i)*n+n]
		gc := gates[(2*hs+i)*n : (2*hs+i)*n+n]
		gout := gates[(3*hs+i)*n : (3*hs+i)*n+n]
		cpRow := cp[i*n : i*n+n]
		for j := 0; j < n; j++ {
			in := sigmoid(gi[j])
			forget := sigmoid(gf[j])
			cell := tanh(gc[j])
			out := sigmoid(gout[j])
			cNew := forget*cpRow[j] + in*cell
			cd[i*n+j] = cNew
			hd[i*n+j] = out * tanh(cNew)
		}
	}
	return h, cState, nil
}

// LookupBatch gathers the embedding vectors for a batch of token ids into a
// feature-major [Dim, N] tensor (column j is tokens[j]'s embedding),
// allocated from s.
func (e *Embedding) LookupBatch(tokens []int, s *tensor.Scratch) (*tensor.Tensor, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("embedding %s: empty token batch", e.name)
	}
	n := len(tokens)
	out := s.Tensor(e.Dim, n)
	od, w := out.Data(), e.Weights.Data()
	for j, tok := range tokens {
		if tok < 0 || tok >= e.Vocab {
			return nil, fmt.Errorf("embedding %s: token %d outside vocabulary of %d", e.name, tok, e.Vocab)
		}
		row := w[tok*e.Dim : (tok+1)*e.Dim]
		for d, v := range row {
			od[d*n+j] = v
		}
	}
	return out, nil
}

// TranslateBatch greedily decodes a batch of source sentences, returning one
// token slice per sentence in input order; sentence i's tokens do not depend
// on the sentences around it. The encoder advances all not-yet-exhausted
// sentences as one matrix step per token position (ragged sentences drop out
// of the batch when their prefix ends), and the decoder keeps an active set
// from which sentences compact out the step they emit EOS, so per-step cost
// shrinks as sentences terminate. Intermediates come from sc; the returned
// slices are plain heap values.
func (m *Seq2Seq) TranslateBatch(srcs [][]int, sc *tensor.Scratch) ([][]int, error) {
	if len(srcs) == 0 {
		return nil, nil
	}
	n := len(srcs)
	hs := m.HiddenSize
	enc := len(m.Encoder)

	// Per-sentence top-layer encoder trajectories ([len, H] row-major, row t
	// = the top hidden state after consuming token t) for attention, plus
	// the last encoder layer's final states that seed the decoder.
	encBuf := make([]*tensor.Tensor, n)
	maxSrc := 0
	for i, src := range srcs {
		if len(src) == 0 {
			return nil, fmt.Errorf("nn: %s: empty source sentence", m.name)
		}
		encBuf[i] = sc.Tensor(len(src), hs)
		if len(src) > maxSrc {
			maxSrc = len(src)
		}
	}
	hFin := make([]*tensor.Tensor, n)
	cFin := make([]*tensor.Tensor, n)

	// Encode. All sentences start active; a sentence leaves the batch once
	// its prefix is exhausted. Initial states are zero; arena memory is not
	// zeroed, so they are cleared explicitly.
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	h := make([]*tensor.Tensor, enc)
	c := make([]*tensor.Tensor, enc)
	for i := range h {
		h[i] = rnnZero2(sc, hs, n)
		c[i] = rnnZero2(sc, hs, n)
	}
	tokens := make([]int, n)
	keep := make([]int, 0, n)
	for t := 0; t < maxSrc; t++ {
		if t > 0 {
			keep = keep[:0]
			for j, idx := range active {
				if t < len(srcs[idx]) {
					keep = append(keep, j)
				}
			}
			if len(keep) < len(active) {
				active = compactActive(active, keep)
				for l := range h {
					h[l] = compactColumns(sc, h[l], keep)
					c[l] = compactColumns(sc, c[l], keep)
				}
			}
		}
		na := len(active)
		toks := tokens[:na]
		for j, idx := range active {
			toks[j] = srcs[idx][t]
		}
		x, err := m.SrcEmbed.LookupBatch(toks, sc)
		if err != nil {
			return nil, err
		}
		cur := x
		for l, cell := range m.Encoder {
			h[l], c[l], err = cell.StepBatch(cur, h[l], c[l], sc)
			if err != nil {
				return nil, err
			}
			cur = h[l]
		}
		cd := cur.Data()
		for j, idx := range active {
			row := encBuf[idx].Data()[t*hs : (t+1)*hs]
			for i := 0; i < hs; i++ {
				row[i] = cd[i*na+j]
			}
			if t == len(srcs[idx])-1 {
				hFin[idx] = gatherColumn(sc, h[enc-1], j)
				cFin[idx] = gatherColumn(sc, c[enc-1], j)
			}
		}
	}

	// Decode greedily with dot-product attention over each sentence's own
	// encoder trajectory. Every decoder layer starts from the last encoder
	// layer's final state.
	dec := len(m.Decoder)
	dh := make([]*tensor.Tensor, dec)
	dc := make([]*tensor.Tensor, dec)
	for l := range dh {
		dh[l] = scatterColumns(sc, hFin)
		dc[l] = scatterColumns(sc, cFin)
	}
	outs := make([][]int, n)
	for i := range outs {
		outs[i] = make([]int, 0, m.MaxLen)
	}
	prev := make([]int, n)
	for i := range prev {
		prev[i] = m.BOS
	}
	active = active[:0]
	for i := 0; i < n; i++ {
		active = append(active, i)
	}
	for step := 0; step < m.MaxLen && len(active) > 0; step++ {
		na := len(active)
		toks := tokens[:na]
		for j, idx := range active {
			toks[j] = prev[idx]
		}
		emb, err := m.DstEmbed.LookupBatch(toks, sc)
		if err != nil {
			return nil, err
		}
		context, err := m.attendBatch(dh[dec-1], encBuf, srcs, active, sc)
		if err != nil {
			return nil, err
		}
		// Stacking the embedding rows above the context rows makes every
		// column the concat(embedding, context) step input vector.
		cur := sc.Tensor(m.DstEmbed.Dim+hs, na)
		copy(cur.Data()[:m.DstEmbed.Dim*na], emb.Data())
		copy(cur.Data()[m.DstEmbed.Dim*na:], context.Data())
		for l, cell := range m.Decoder {
			dh[l], dc[l], err = cell.StepBatch(cur, dh[l], dc[l], sc)
			if err != nil {
				return nil, err
			}
			cur = dh[l]
		}
		logits, err := m.Output.Forward(cur, sc)
		if err != nil {
			return nil, err
		}
		keep = keep[:0]
		for j, idx := range active {
			next, err := tensor.ColumnArgMax(logits, j)
			if err != nil {
				return nil, err
			}
			if next == m.EOS {
				continue
			}
			outs[idx] = append(outs[idx], next)
			prev[idx] = next
			keep = append(keep, j)
		}
		if len(keep) == 0 {
			break
		}
		if len(keep) < na {
			active = compactActive(active, keep)
			for l := range dh {
				dh[l] = compactColumns(sc, dh[l], keep)
				dc[l] = compactColumns(sc, dc[l], keep)
			}
		}
	}
	return outs, nil
}

// attendBatch computes the attention context column for every active
// sentence: sentence idx attends over its own encoder trajectory encBuf[idx]
// (dot-product scores, softmax, weighted blend), so a context column never
// depends on the other sentences in the batch.
func (m *Seq2Seq) attendBatch(query *tensor.Tensor, encBuf []*tensor.Tensor, srcs [][]int, active []int, sc *tensor.Scratch) (*tensor.Tensor, error) {
	hs := m.HiddenSize
	na := len(active)
	context := sc.Tensor(hs, na)
	q := sc.Tensor(hs)
	col := sc.Tensor(hs)
	qd, cold, ctxd := q.Data(), col.Data(), context.Data()
	for j, idx := range active {
		steps := len(srcs[idx])
		// Gather the query column; a contiguous copy changes no values.
		for i := 0; i < hs; i++ {
			qd[i] = query.Data()[i*na+j]
		}
		scores := sc.Tensor(steps)
		encd := encBuf[idx].Data()
		for t := 0; t < steps; t++ {
			row := encd[t*hs : (t+1)*hs]
			var dot float32
			for i := 0; i < hs; i++ {
				dot += qd[i] * row[i]
			}
			scores.Data()[t] = dot
		}
		if err := tensor.SoftmaxInto(scores, scores); err != nil {
			return nil, err
		}
		for i := range cold {
			cold[i] = 0
		}
		for t := 0; t < steps; t++ {
			w := scores.Data()[t]
			row := encd[t*hs : (t+1)*hs]
			for i := 0; i < hs; i++ {
				cold[i] += w * row[i]
			}
		}
		for i := 0; i < hs; i++ {
			ctxd[i*na+j] = cold[i]
		}
	}
	return context, nil
}

// rnnZero2 returns a zeroed rank-2 tensor from the arena, whose memory is
// not zeroed on its own.
func rnnZero2(s *tensor.Scratch, rows, cols int) *tensor.Tensor {
	t := s.Tensor(rows, cols)
	t.Fill(0)
	return t
}

// gatherColumn copies column j of a [rows, N] tensor into a fresh vector.
func gatherColumn(s *tensor.Scratch, t *tensor.Tensor, j int) *tensor.Tensor {
	rows, n := t.Dim(0), t.Dim(1)
	out := s.Tensor(rows)
	od, td := out.Data(), t.Data()
	for i := 0; i < rows; i++ {
		od[i] = td[i*n+j]
	}
	return out
}

// scatterColumns stacks the given equal-length vectors as the columns of a
// fresh [rows, len(cols)] tensor.
func scatterColumns(s *tensor.Scratch, cols []*tensor.Tensor) *tensor.Tensor {
	rows, n := cols[0].Len(), len(cols)
	out := s.Tensor(rows, n)
	od := out.Data()
	for j, v := range cols {
		vd := v.Data()
		for i := 0; i < rows; i++ {
			od[i*n+j] = vd[i]
		}
	}
	return out
}

// compactColumns keeps only the listed columns of a [rows, N] tensor,
// preserving their order. Column values are copied verbatim, so compaction
// never changes a surviving sequence's arithmetic.
func compactColumns(s *tensor.Scratch, t *tensor.Tensor, keep []int) *tensor.Tensor {
	rows, n := t.Dim(0), t.Dim(1)
	out := s.Tensor(rows, len(keep))
	od, td := out.Data(), t.Data()
	for i := 0; i < rows; i++ {
		for jj, j := range keep {
			od[i*len(keep)+jj] = td[i*n+j]
		}
	}
	return out
}

// compactActive keeps the listed positions of the active-index list.
func compactActive(active, keep []int) []int {
	out := active[:0]
	for _, j := range keep {
		out = append(out, active[j])
	}
	return out
}
