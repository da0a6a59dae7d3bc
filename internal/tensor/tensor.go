// Package tensor implements the dense float32 tensors and compute kernels
// (matrix multiply, 2-D convolution, pooling, element-wise math) that the
// in-repo reference models are built from. The MLPerf reference models only
// need a handful of operator shapes, so the package has one entry point per
// kernel and that entry point takes a batch — channel-major [C, N, H, W]
// activations, feature-major [F, N] vectors, one sample being N = 1 (see
// batched.go) — built from blocked/panelled GEMM, im2col convolution,
// parallel row dispatch, and hand-written SIMD microkernels. The package's
// tests carry one naive serial reference per kernel (MatMulSerial,
// Conv2DSerial, ... in serial_test.go) that every fast path is compared
// against.
//
// # SIMD dispatch tiers
//
// On amd64 the GEMM inner loops dispatch at runtime across three tiers,
// probed once from CPUID at init and overridable with MLPERF_SIMD (or
// SetSIMD at runtime):
//
//   - off:  the pure-Go scalar kernels. The only tier on non-amd64 builds,
//     and the forced-scalar oracle the SIMD tiers are fuzzed against.
//   - avx2: 8-wide AVX2 mul+add kernels, the default wherever supported.
//     Bit-identical to off — see the determinism contract below.
//   - fma:  AVX2+FMA kernels (fused multiply-add, plus multi-accumulator
//     dot products for matrix–vector). Fastest, but each fused pair rounds
//     once instead of twice, so results can differ from the scalar path in
//     the last bits. Opt-in only (MLPERF_SIMD=fma); never chosen by default.
//
// # The determinism contract
//
// Every kernel computes each output element as an ascending-k accumulation
// from its bias term. The scalar path does this one multiply and one add at
// a time; the avx2 tier vectorizes across output *columns* — eight outputs
// advance in lockstep, each still seeing its own multiplies and adds in the
// same order with the same intermediate roundings — so off and avx2 produce
// bit-identical floats for any shape, split or panel size. The fma tier
// deliberately relaxes exactly one thing (the intermediate rounding between
// multiply and add) and is validated against the serial reference by relative
// tolerance instead of bit equality.
//
// # Tuning knobs and calibration
//
// Two knobs steer kernel scheduling without affecting results: the
// parallel-dispatch threshold (SetParallelFlopThreshold) decides when a GEMM
// is worth forking across workers, and the panel budget (SetGEMMPanelBytes)
// sizes the cache-resident column panels. Calibrate measures this machine's
// MAC throughput, fork overhead and L2 size and derives both; Apply installs
// them. CurrentKernelConfig reports the live tier and knob values — the
// serving layer embeds it in every metrics snapshot so a fleet's kernel
// configuration is auditable per replica.
//
// Holding every kernel to the serial reference keeps the numerical behaviour
// easy to reason about when validating quantization (Section III-B of the
// paper) — every fast path must reproduce or tolerably approximate what the
// obvious loop computes.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. Shapes must be
// non-empty and every dimension must be positive.
func New(shape ...int) (*Tensor, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("tensor: shape must have at least one dimension")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: dimension %d must be positive, got shape %v", d, shape)
		}
		if n > math.MaxInt32/d {
			return nil, fmt.Errorf("tensor: shape %v overflows element count", shape)
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}, nil
}

// MustNew is New but panics on error. Intended for static model construction
// where shapes are compile-time constants.
func MustNew(shape ...int) *Tensor {
	t, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The data slice is used
// directly (not copied); its length must match the shape's element count.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	t, err := New(shape...)
	if err != nil {
		return nil, err
	}
	if len(data) != len(t.data) {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, len(t.data))
	}
	t.data = data
	return t, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: make([]int, len(t.shape)), data: make([]float32, len(t.data))}
	copy(c.shape, t.shape)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape sharing the same storage. The
// element counts must match.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: reshape dimension must be positive, got %v", shape)
		}
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// SameShape reports whether the two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// offset computes the flat index for the given coordinates.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d (size %d)", v, i, t.shape[i]))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx...)] }

// Set assigns the element at the given coordinates.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces each element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScalar adds s to every element.
func (t *Tensor) AddScalar(s float32) {
	for i := range t.data {
		t.data[i] += s
	}
}

// Add adds other element-wise into t. The shapes must match.
func (t *Tensor) Add(other *Tensor) error {
	if !SameShape(t, other) {
		return fmt.Errorf("tensor: add shape mismatch %v vs %v", t.shape, other.shape)
	}
	for i := range t.data {
		t.data[i] += other.data[i]
	}
	return nil
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value; 0 for an all-zero tensor.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	best := 0
	for i, v := range t.data {
		if v > t.data[best] {
			best = i
		}
	}
	return best
}

// Equalish reports whether the two tensors have the same shape and all
// elements within tol of one another.
func Equalish(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Abs(float64(a.data[i])-float64(b.data[i])) > tol {
			return false
		}
	}
	return true
}
