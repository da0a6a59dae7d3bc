package tensor

import (
	"fmt"
	"sync"

	"mlperf/internal/parallel"
)

// Kernel entry points. Every kernel takes a batch; one sample is a batch of
// one. A batch of spatial activations is stored
// CHANNEL-MAJOR — a rank-4 [C, N, H, W] tensor — and a batch of feature
// vectors is a rank-2 [F, N] tensor. The layout is chosen so the batched
// convolution's single GEMM writes its output directly in the next layer's
// input layout:
//
//	cols  = im2col(batch)        // (C_in·KH·KW) × (N·H_out·W_out)
//	out   = kernels × cols       // C_out × (N·H_out·W_out)  ==  [C_out,N,H',W']
//
// so the whole network runs one im2col + one GEMM per convolution layer with
// ZERO layout fixups between layers, and pointwise (1×1, stride 1, unpadded)
// convolutions skip im2col entirely — the activations already are the im2col
// matrix. PackSample/UnpackSample convert between per-sample CHW tensors and
// the batched layout at the boundaries.
//
// Every kernel on a batch of N is bit-for-bit identical to N runs on batches
// of one: each output element accumulates exactly the same terms in exactly
// the same order, regardless of batch size, batch position or worker count,
// and that order is the serial reference's (the *Serial kernels in the
// package's tests). The equivalence tests here and in internal/nn and
// internal/model assert this kernel by kernel and end to end.

// PackSample copies a CHW sample into position n of a channel-major
// [C, N, H, W] batch.
func PackSample(batch, sample *Tensor, n int) error {
	if batch.Rank() != 4 || sample.Rank() != 3 {
		return fmt.Errorf("tensor: PackSample wants [C N H W] batch and CHW sample, got %v and %v", batch.shape, sample.shape)
	}
	c, bn, hw := batch.shape[0], batch.shape[1], batch.shape[2]*batch.shape[3]
	if n < 0 || n >= bn {
		return fmt.Errorf("tensor: PackSample index %d out of range [0,%d)", n, bn)
	}
	if sample.shape[0] != c || sample.shape[1] != batch.shape[2] || sample.shape[2] != batch.shape[3] {
		return fmt.Errorf("tensor: PackSample sample shape %v does not match batch %v", sample.shape, batch.shape)
	}
	for ch := 0; ch < c; ch++ {
		copy(batch.data[(ch*bn+n)*hw:(ch*bn+n+1)*hw], sample.data[ch*hw:(ch+1)*hw])
	}
	return nil
}

// UnpackSample copies position n of a channel-major [C, N, H, W] batch into
// the CHW tensor dst (fully overwritten).
func UnpackSample(dst, batch *Tensor, n int) error {
	if batch.Rank() != 4 || dst.Rank() != 3 {
		return fmt.Errorf("tensor: UnpackSample wants [C N H W] batch and CHW dst, got %v and %v", batch.shape, dst.shape)
	}
	c, bn, hw := batch.shape[0], batch.shape[1], batch.shape[2]*batch.shape[3]
	if n < 0 || n >= bn {
		return fmt.Errorf("tensor: UnpackSample index %d out of range [0,%d)", n, bn)
	}
	if dst.shape[0] != c || dst.shape[1] != batch.shape[2] || dst.shape[2] != batch.shape[3] {
		return fmt.Errorf("tensor: UnpackSample dst shape %v does not match batch %v", dst.shape, batch.shape)
	}
	for ch := 0; ch < c; ch++ {
		copy(dst.data[ch*hw:(ch+1)*hw], batch.data[(ch*bn+n)*hw:(ch*bn+n+1)*hw])
	}
	return nil
}

// PostOp is an element-wise epilogue a kernel applies to its output while
// the just-computed panel is still cache-resident, instead of a separate
// full-tensor pass afterwards. The values are identical to clamping the whole
// output afterwards.
type PostOp int

// The supported fused epilogues.
const (
	PostNone PostOp = iota
	PostReLU
	PostReLU6
)

// applyPost applies the epilogue to one slice.
func applyPost(seg []float32, post PostOp) {
	switch post {
	case PostReLU:
		for i, v := range seg {
			if v < 0 {
				seg[i] = 0
			}
		}
	case PostReLU6:
		for i, v := range seg {
			switch {
			case v < 0:
				seg[i] = 0
			case v > 6:
				seg[i] = 6
			}
		}
	}
}

// colsPool recycles im2col staging buffers for convolutions that run without
// a caller arena or across workers.
var colsPool = sync.Pool{New: func() any { return new([]float32) }}

// Conv2DBatchedInto convolves a channel-major [C_in, N, H, W] batch with
// kernels (C_out × C_in × KH × KW) into dst ([C_out, N, H_out, W_out]); the
// GEMM writes dst directly in the next layer's input layout, with no
// per-layer scatter, and post is fused into the panel epilogue. bias may be
// nil or length C_out. scratch, when non-nil, supplies the im2col staging
// buffer. dst is fully overwritten and must not alias input.
//
// The batch is processed in sample panels sized so one packed im2col panel
// (k × panel-columns) stays cache-resident: the panel buffer is filled once
// and reused by every group of output rows, so the GEMM keeps a one-sample
// working set's locality while its inner loops run the full panel width —
// the win that makes merged offline/server queries faster than
// sample-at-a-time inference even on one core. Panels have fixed boundaries
// and are distributed over the worker pool for large batches; every output
// element accumulates in the same order regardless of panel or worker count.
func Conv2DBatchedInto(dst, input, kernels, bias *Tensor, opts Conv2DOptions, post PostOp, scratch *Scratch) error {
	if input.Rank() != 4 {
		return fmt.Errorf("tensor: Conv2DBatchedInto requires [C N H W] input, got %v", input.shape)
	}
	g, err := conv2DGeometry(input.shape[0], input.shape[2], input.shape[3], kernels, bias, opts)
	if err != nil {
		return err
	}
	batch := input.shape[1]
	if dst.Rank() != 4 || dst.shape[0] != g.cout || dst.shape[1] != batch || dst.shape[2] != g.hOut || dst.shape[3] != g.wOut {
		return fmt.Errorf("tensor: Conv2DBatchedInto dst shape %v, want [%d %d %d %d]", dst.shape, g.cout, batch, g.hOut, g.wOut)
	}
	var biasData []float32
	if bias != nil {
		biasData = bias.data
	}
	k := g.cin * g.kh * g.kw
	hw := g.hOut * g.wOut
	n := batch * hw
	pointwise := g.kh == 1 && g.kw == 1 && opts.Stride == 1 && opts.Padding == 0

	// Samples per panel: as many whole samples as keep k × panel columns
	// within the cache budget.
	spp := GEMMPanelBytes() / (4 * k * hw)
	if spp < 1 {
		spp = 1
	}
	if spp > batch {
		spp = batch
	}
	panels := (batch + spp - 1) / spp

	// Zero-copy pointwise path: when one panel covers the whole batch, the
	// channel-major activations already are the full packed im2col matrix —
	// multiply straight off them without staging a copy.
	if pointwise && panels == 1 {
		gemmPanelInto(dst.data, kernels.data, input.data, biasData, g.cout, k, n, 0, n, post)
		return nil
	}

	// fillPanel packs the im2col columns of samples [n0, n1) into buf
	// (k × (n1-n0)·hw, contiguous). For a pointwise convolution the
	// channel-major activations already hold the im2col values, so packing is
	// a plain copy per (row, sample) plane.
	fillPanel := func(buf []float32, n0, n1 int) {
		jn := (n1 - n0) * hw
		if pointwise {
			for r := 0; r < k; r++ {
				for s := n0; s < n1; s++ {
					copy(buf[r*jn+(s-n0)*hw:r*jn+(s-n0)*hw+hw], input.data[(r*batch+s)*hw:(r*batch+s+1)*hw])
				}
			}
			return
		}
		for r := 0; r < k; r++ {
			ic := r / (g.kh * g.kw)
			ky := r / g.kw % g.kh
			kx := r % g.kw
			for s := n0; s < n1; s++ {
				im2colSampleRow(buf[r*jn+(s-n0)*hw:r*jn+(s-n0)*hw+hw],
					input.data[(ic*batch+s)*g.h*g.w:(ic*batch+s+1)*g.h*g.w], opts, g, ky, kx)
			}
		}
	}
	// onePanel stages panel p in buf and multiplies; the activation is fused
	// into the GEMM's row-group epilogue while the output is cache-hot.
	onePanel := func(buf []float32, p int) {
		n0 := p * spp
		n1 := n0 + spp
		if n1 > batch {
			n1 = batch
		}
		jn := (n1 - n0) * hw
		fillPanel(buf[:k*jn], n0, n1)
		gemmPanelInto(dst.data, kernels.data, buf[:k*jn], biasData, g.cout, k, n, n0*hw, jn, post)
	}
	runPanels := func(p0, p1 int) {
		buf := colsPool.Get().(*[]float32)
		if cap(*buf) < k*spp*hw {
			*buf = make([]float32, k*spp*hw)
		}
		for p := p0; p < p1; p++ {
			onePanel(*buf, p)
		}
		colsPool.Put(buf)
	}

	if g.cout*k*n < ParallelFlopThreshold() || parallel.Default().Workers() == 1 || panels == 1 {
		// Serial path: one staging buffer, from the caller's arena when given.
		if scratch != nil {
			buf := scratch.Floats(k * spp * hw)
			for p := 0; p < panels; p++ {
				onePanel(buf, p)
			}
			return nil
		}
		runPanels(0, panels)
		return nil
	}
	parallel.For(panels, 1, runPanels)
	return nil
}

// DepthwiseConv2DBatchedInto applies the depthwise convolution to a
// channel-major [C, N, H, W] batch, fusing post into the per-plane epilogue
// while each freshly computed plane is cache-hot. Every (channel, sample)
// plane runs the same inner kernel whatever the batch size, so results are
// bit-identical per element. Planes are distributed over the worker pool.
func DepthwiseConv2DBatchedInto(dst, input, kernels, bias *Tensor, opts Conv2DOptions, post PostOp) error {
	if input.Rank() != 4 {
		return fmt.Errorf("tensor: DepthwiseConv2DBatchedInto wants [C N H W] input, got %v", input.shape)
	}
	g, err := depthwiseGeometry(input.shape[0], input.shape[2], input.shape[3], kernels, bias, opts)
	if err != nil {
		return err
	}
	batch := input.shape[1]
	if dst.Rank() != 4 || dst.shape[0] != g.c || dst.shape[1] != batch || dst.shape[2] != g.hOut || dst.shape[3] != g.wOut {
		return fmt.Errorf("tensor: DepthwiseConv2DBatchedInto dst shape %v, want [%d %d %d %d]", dst.shape, g.c, batch, g.hOut, g.wOut)
	}
	planes := g.c * batch
	run := func(p0, p1 int) {
		for p := p0; p < p1; p++ {
			ch := p / batch
			var bv float32
			if bias != nil {
				bv = bias.data[ch]
			}
			plane := dst.data[p*g.hOut*g.wOut : (p+1)*g.hOut*g.wOut]
			depthwisePlane(plane,
				input.data[p*g.h*g.w:(p+1)*g.h*g.w],
				kernels.data[ch*g.kh*g.kw:(ch+1)*g.kh*g.kw],
				bv, opts, g)
			applyPost(plane, post)
		}
	}
	if planes*g.hOut*g.wOut*g.kh*g.kw < ParallelFlopThreshold() || parallel.Default().Workers() == 1 {
		run(0, planes)
		return nil
	}
	parallel.For(planes, 0, run)
	return nil
}

// MaxPool2DBatchedInto pools every (channel, sample) plane of a channel-major
// [C, N, H, W] batch.
func MaxPool2DBatchedInto(dst, input *Tensor, window, stride int) error {
	if input.Rank() != 4 || dst.Rank() != 4 {
		return fmt.Errorf("tensor: MaxPool2DBatchedInto wants [C N H W] tensors, got %v -> %v", input.shape, dst.shape)
	}
	h, w := input.shape[2], input.shape[3]
	hOut, wOut, err := maxPoolGeometry(h, w, window, stride)
	if err != nil {
		return err
	}
	c, batch := input.shape[0], input.shape[1]
	if dst.shape[0] != c || dst.shape[1] != batch || dst.shape[2] != hOut || dst.shape[3] != wOut {
		return fmt.Errorf("tensor: MaxPool2DBatchedInto dst shape %v, want [%d %d %d %d]", dst.shape, c, batch, hOut, wOut)
	}
	for p := 0; p < c*batch; p++ {
		maxPoolPlane(dst.data[p*hOut*wOut:(p+1)*hOut*wOut], input.data[p*h*w:(p+1)*h*w],
			window, stride, w, hOut, wOut)
	}
	return nil
}

// GlobalAvgPool2DBatchedInto reduces a channel-major [C, N, H, W] batch to a
// [C, N] feature matrix — exactly the layout DenseBatchedInto consumes.
func GlobalAvgPool2DBatchedInto(dst, input *Tensor) error {
	if input.Rank() != 4 {
		return fmt.Errorf("tensor: GlobalAvgPool2DBatchedInto requires [C N H W] input, got %v", input.shape)
	}
	if dst.Rank() != 2 || dst.shape[0] != input.shape[0] || dst.shape[1] != input.shape[1] {
		return fmt.Errorf("tensor: GlobalAvgPool2DBatchedInto dst shape %v, want [%d %d]", dst.shape, input.shape[0], input.shape[1])
	}
	c, batch := input.shape[0], input.shape[1]
	hw := input.shape[2] * input.shape[3]
	area := float32(hw)
	for p := 0; p < c*batch; p++ {
		dst.data[p] = avgPlane(input.data[p*hw:(p+1)*hw], area)
	}
	return nil
}

// DenseBatchedInto computes Y = W × X (+ bias per output row) for weights W
// (out × in) and a feature-major batch X ([in, N]), writing Y ([out, N]) as
// one GEMM — no weight or activation reshuffling. Each output element
// accumulates in ascending-k order from zero and then adds the bias — the
// serial matrix–vector product followed by a vector add, bit for bit.
func DenseBatchedInto(dst, weights, x, bias *Tensor) error {
	if weights.Rank() != 2 || x.Rank() != 2 || weights.shape[1] != x.shape[0] {
		return fmt.Errorf("tensor: DenseBatchedInto wants (out×in) weights and [in N] batch, got %v and %v", weights.shape, x.shape)
	}
	out, batch := weights.shape[0], x.shape[1]
	if dst.Rank() != 2 || dst.shape[0] != out || dst.shape[1] != batch {
		return fmt.Errorf("tensor: DenseBatchedInto dst shape %v, want [%d %d]", dst.shape, out, batch)
	}
	gemmInto(dst.data, weights.data, x.data, nil, out, weights.shape[1], batch)
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != out {
			return fmt.Errorf("tensor: DenseBatchedInto bias shape %v, want [%d]", bias.shape, out)
		}
		for o := 0; o < out; o++ {
			row := dst.data[o*batch : o*batch+batch]
			bv := bias.data[o]
			for j := range row {
				row[j] += bv
			}
		}
	}
	return nil
}

// AddThenReLU computes t[i] = max(0, t[i]+other[i]) in one pass — the
// residual shortcut's add and activation fused so large batched activations
// are streamed once instead of twice. Values are identical to Add followed by
// ReLU.
func AddThenReLU(t, other *Tensor) error {
	if !SameShape(t, other) {
		return fmt.Errorf("tensor: AddThenReLU shape mismatch %v vs %v", t.shape, other.shape)
	}
	for i := range t.data {
		v := t.data[i] + other.data[i]
		if v < 0 {
			v = 0
		}
		t.data[i] = v
	}
	return nil
}

// ColumnArgMax returns, for column n of a rank-2 [F, N] tensor, the row index
// of the maximum element, scanning rows in ascending order exactly like
// Tensor.ArgMax scans a vector (strict greater-than, first maximum wins).
func ColumnArgMax(t *Tensor, n int) (int, error) {
	if t.Rank() != 2 {
		return 0, fmt.Errorf("tensor: ColumnArgMax requires a rank-2 tensor, got %v", t.shape)
	}
	rows, cols := t.shape[0], t.shape[1]
	if n < 0 || n >= cols {
		return 0, fmt.Errorf("tensor: ColumnArgMax column %d out of range [0,%d)", n, cols)
	}
	best := 0
	for r := 1; r < rows; r++ {
		if t.data[r*cols+n] > t.data[best*cols+n] {
			best = r
		}
	}
	return best, nil
}
