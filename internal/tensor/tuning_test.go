package tensor

import "testing"

// TestTuningSettersAndDefaults pins the override/restore contract of the two
// tuning knobs.
func TestTuningSettersAndDefaults(t *testing.T) {
	if got := ParallelFlopThreshold(); got != defaultParallelFlopThreshold {
		t.Fatalf("default flop threshold = %d, want %d", got, defaultParallelFlopThreshold)
	}
	if got := GEMMPanelBytes(); got != defaultGEMMPanelBytes {
		t.Fatalf("default panel bytes = %d, want %d", got, defaultGEMMPanelBytes)
	}

	prev := SetParallelFlopThreshold(123)
	if prev != defaultParallelFlopThreshold {
		t.Errorf("SetParallelFlopThreshold returned %d, want previous %d", prev, defaultParallelFlopThreshold)
	}
	if got := ParallelFlopThreshold(); got != 123 {
		t.Errorf("flop threshold after set = %d, want 123", got)
	}
	// Non-positive restores the default.
	SetParallelFlopThreshold(0)
	if got := ParallelFlopThreshold(); got != defaultParallelFlopThreshold {
		t.Errorf("flop threshold after reset = %d, want default", got)
	}

	SetGEMMPanelBytes(64 << 10)
	if got := GEMMPanelBytes(); got != 64<<10 {
		t.Errorf("panel bytes after set = %d", got)
	}
	SetGEMMPanelBytes(-1)
	if got := GEMMPanelBytes(); got != defaultGEMMPanelBytes {
		t.Errorf("panel bytes after reset = %d, want default", got)
	}
}

// TestFlopThresholdBothSides runs the same workload with the threshold forced
// above it (serial dispatch) and below it (parallel dispatch) and requires
// bit-identical outputs: the knob is a scheduling decision, never a numerics
// change. The conv workload also crosses the batched sample-panel split,
// exercising the panel-budget knob on both sides of its default.
func TestFlopThresholdBothSides(t *testing.T) {
	defer SetParallelFlopThreshold(0)
	defer SetGEMMPanelBytes(0)

	a := seededTensor(1, 96, 64)
	b := seededTensor(2, 64, 80)

	SetParallelFlopThreshold(1) // 96*64*80 MACs >> 1: parallel dispatch
	parallelOut, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelFlopThreshold(1 << 30) // far above the workload: inline
	serialOut, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "MatMul across threshold", parallelOut, serialOut)

	// Batched convolution: shrink the panel budget so the batch splits into
	// many sample panels, then grow it so one panel covers everything.
	input := seededTensor(3, 8, 6, 12, 12) // [C=8, N=6, 12, 12]
	kernels := seededTensor(4, 12, 8, 3, 3)
	bias := seededTensor(5, 12)
	opts := Conv2DOptions{Stride: 1, Padding: 1}
	run := func(threshold, panel int) *Tensor {
		SetParallelFlopThreshold(threshold)
		SetGEMMPanelBytes(panel)
		dst := MustNew(12, 6, 12, 12)
		if err := Conv2DBatchedInto(dst, input, kernels, bias, opts, PostNone, nil); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	ref := run(1<<30, 0)           // inline, default panel split
	small := run(1, 4*8*3*3*144+1) // parallel dispatch, one sample per panel
	big := run(1, 1<<30)           // parallel dispatch, whole batch in one panel
	requireBitEqual(t, "batched conv small panels", ref, small)
	requireBitEqual(t, "batched conv one panel", ref, big)
}

// seededTensor builds a deterministic pseudo-random tensor without pulling in
// the stats package (tensor must stay dependency-light).
func seededTensor(seed uint64, shape ...int) *Tensor {
	t := MustNew(shape...)
	x := seed*2862933555777941757 + 3037000493
	for i := range t.data {
		x = x*2862933555777941757 + 3037000493
		t.data[i] = float32(int32(x>>33)) / (1 << 30)
	}
	return t
}

func requireBitEqual(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v vs %v", label, got.shape, want.shape)
	}
	for i := range got.data {
		if got.data[i] != want.data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, got.data[i], want.data[i])
		}
	}
}
