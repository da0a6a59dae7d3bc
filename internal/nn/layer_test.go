package nn

import (
	"testing"

	"mlperf/internal/stats"
	"mlperf/internal/tensor"
)

func TestConvLayerShapesAndOps(t *testing.T) {
	rng := stats.NewRNG(1)
	conv := NewConv("c1", 3, 8, 3, 2, 1, rng)
	in := []int{3, 16, 16}
	out, err := conv.OutputShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 8 || out[1] != 8 || out[2] != 8 {
		t.Fatalf("output shape = %v", out)
	}
	if conv.ParamCount() != int64(8*3*3*3+8) {
		t.Errorf("param count = %d", conv.ParamCount())
	}
	ops, err := conv.Ops(in)
	if err != nil {
		t.Fatal(err)
	}
	if ops != int64(2*3*3*3)*8*8*8 {
		t.Errorf("ops = %d", ops)
	}
	x := tensor.MustNew(3, 16, 16)
	x.Fill(0.5)
	y, err := forwardOne(t, conv, x)
	if err != nil {
		t.Fatal(err)
	}
	ys := y.Shape()
	if ys[0] != out[0] || ys[1] != out[1] || ys[2] != out[2] {
		t.Errorf("Forward shape %v != OutputShape %v", ys, out)
	}
	// ReLU fused: no negatives.
	for _, v := range y.Data() {
		if v < 0 {
			t.Fatal("fused ReLU did not clamp negatives")
		}
	}
}

func TestConvLayerShapeErrors(t *testing.T) {
	conv := NewConv("c", 3, 4, 3, 1, 0, stats.NewRNG(1))
	if _, err := conv.OutputShape([]int{4, 8, 8}); err == nil {
		t.Error("channel mismatch: expected error")
	}
	if _, err := conv.OutputShape([]int{3, 2, 2}); err == nil {
		t.Error("too-small input: expected error")
	}
	if _, err := conv.Ops([]int{3, 2}); err == nil {
		t.Error("bad rank: expected error")
	}
	// Forward takes a batch: a bare CHW sample is a rank error, not a batch.
	if _, err := conv.Forward(tensor.MustNew(3, 8, 8), tensor.NewScratch()); err == nil {
		t.Error("CHW input to Forward: expected error")
	}
	if _, err := conv.Forward(tensor.MustNew(4, 2, 8, 8), tensor.NewScratch()); err == nil {
		t.Error("channel mismatch in Forward: expected error")
	}
}

func TestDepthwiseConvLayer(t *testing.T) {
	dw := NewDepthwiseConv("dw", 4, 3, 1, 1, stats.NewRNG(2))
	out, err := dw.OutputShape([]int{4, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 || out[1] != 10 || out[2] != 10 {
		t.Fatalf("shape = %v", out)
	}
	x := tensor.MustNew(4, 10, 10)
	x.Fill(1)
	y, err := forwardOne(t, dw, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data() {
		if v < 0 || v > 6 {
			t.Fatal("ReLU6 bounds violated")
		}
	}
}

func TestDenseLayer(t *testing.T) {
	d := NewDense("fc", 4, 3, false, stats.NewRNG(3))
	if d.ParamCount() != 4*3+3 {
		t.Errorf("params = %d", d.ParamCount())
	}
	ops, err := d.Ops([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if ops != 24 {
		t.Errorf("ops = %d", ops)
	}
	x := tensor.MustNew(4)
	x.Fill(1)
	y, err := forwardOne(t, d, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 3 {
		t.Errorf("output length = %d", y.Len())
	}
	if _, err := forwardOne(t, d, tensor.MustNew(5)); err == nil {
		t.Error("wrong input size: expected error")
	}
}

func TestPoolAndSoftmaxLayers(t *testing.T) {
	mp := NewMaxPool("mp", 2, 2)
	out, err := mp.OutputShape([]int{3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != 4 {
		t.Errorf("maxpool shape = %v", out)
	}
	if mp.ParamCount() != 0 {
		t.Error("maxpool has no parameters")
	}
	gap := NewGlobalAvgPool("gap")
	gout, err := gap.OutputShape([]int{5, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(gout) != 1 || gout[0] != 5 {
		t.Errorf("gap shape = %v", gout)
	}
	sm := NewSoftmax("sm")
	if _, err := sm.OutputShape([]int{3, 3}); err == nil {
		t.Error("softmax on rank-2: expected error")
	}
	probs, err := forwardOne(t, sm, tensor.MustNew(10))
	if err != nil {
		t.Fatal(err)
	}
	if probs.Len() != 10 {
		t.Errorf("softmax output length = %d", probs.Len())
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := stats.NewRNG(4)
	model := NewSequential("tiny",
		NewConv("c1", 1, 4, 3, 1, 1, rng),
		NewMaxPool("p1", 2, 2),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 10, false, rng),
		NewSoftmax("sm"),
	)
	in := []int{1, 8, 8}
	out, err := model.OutputShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("model output shape = %v", out)
	}
	if model.ParamCount() == 0 {
		t.Error("expected nonzero parameters")
	}
	ops, err := model.Ops(in)
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 {
		t.Error("expected positive op count")
	}
	x := tensor.MustNew(1, 8, 8)
	x.Fill(0.3)
	y, err := forwardOne(t, model, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 10 {
		t.Errorf("forward output length = %d", y.Len())
	}
	if len(model.Layers()) != 5 {
		t.Errorf("Layers() = %d", len(model.Layers()))
	}
}

func TestSequentialPropagatesErrors(t *testing.T) {
	rng := stats.NewRNG(5)
	model := NewSequential("bad",
		NewConv("c1", 1, 4, 3, 1, 1, rng),
		NewDense("fc", 4, 10, false, rng), // dense on CHW input: error
	)
	if _, err := model.OutputShape([]int{1, 8, 8}); err == nil {
		t.Error("expected shape error to propagate")
	}
	x := tensor.MustNew(1, 8, 8)
	if _, err := forwardOne(t, model, x); err == nil {
		t.Error("expected forward error to propagate")
	}
	if _, err := model.Ops([]int{1, 8, 8}); err == nil {
		t.Error("expected ops error to propagate")
	}
}

func TestResidualBlock(t *testing.T) {
	rng := stats.NewRNG(6)
	body := NewSequential("body",
		NewConv("c1", 4, 4, 3, 1, 1, rng),
		NewConv("c2", 4, 4, 3, 1, 1, rng),
	)
	res := NewResidual("res", body)
	in := []int{4, 8, 8}
	out, err := res.OutputShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 || out[1] != 8 || out[2] != 8 {
		t.Fatalf("residual shape = %v", out)
	}
	x := tensor.MustNew(4, 8, 8)
	x.Fill(0.1)
	y, err := forwardOne(t, res, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(x, y) {
		t.Error("residual changed shape")
	}
	if res.ParamCount() != body.ParamCount() {
		t.Error("residual param count mismatch")
	}
	bodyOps, _ := body.Ops(in)
	resOps, _ := res.Ops(in)
	if resOps <= bodyOps {
		t.Error("residual ops should exceed body ops (adds elementwise work)")
	}
}

func TestResidualShapeMismatchRejected(t *testing.T) {
	rng := stats.NewRNG(7)
	body := NewConv("c", 4, 8, 3, 1, 1, rng) // changes channel count
	res := NewResidual("res", body)
	if _, err := res.OutputShape([]int{4, 8, 8}); err == nil {
		t.Error("expected shape-change rejection")
	}
	if _, err := forwardOne(t, res, tensor.MustNew(4, 8, 8)); err == nil {
		t.Error("expected forward rejection")
	}
}

func TestDeterministicInitialization(t *testing.T) {
	a := NewConv("c", 3, 8, 3, 1, 1, stats.NewRNG(99))
	b := NewConv("c", 3, 8, 3, 1, 1, stats.NewRNG(99))
	if !tensor.Equalish(a.Weights, b.Weights, 0) {
		t.Error("same-seed initialization differs")
	}
	c := NewConv("c", 3, 8, 3, 1, 1, stats.NewRNG(100))
	if tensor.Equalish(a.Weights, c.Weights, 0) {
		t.Error("different-seed initialization identical")
	}
}
