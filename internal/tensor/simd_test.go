package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// SIMD dispatch tests. The contract under test:
//
//   - off and avx2 are BIT-IDENTICAL on every shape, offset, epilogue and
//     dispatch route — the avx2 kernels perform the scalar arithmetic
//     element-for-element, so randomized bit-equality is the oracle.
//   - fma is NOT bit-identical (fused rounding, re-associated dot
//     reductions); it is validated against a relative-error oracle.
//   - Tier changes are atomic and race-free against running kernels.

// withTier runs fn with the dispatch tier pinned, restoring the previous tier
// after. It reports false (and does not run fn) when the CPU lacks the tier.
func withTier(t *testing.T, tier SIMDTier, fn func()) bool {
	t.Helper()
	if !SIMDSupported(tier) {
		return false
	}
	prev := SetSIMD(tier)
	defer SetSIMD(prev)
	fn()
	return true
}

// unalignedFloats returns an n-float slice whose backing data starts off the
// allocator's natural alignment by off floats, to prove the kernels tolerate
// any 4-byte-aligned base address.
func unalignedFloats(n, off int) []float32 {
	backing := make([]float32, n+off)
	return backing[off : off+n]
}

// fillRand fills dst with standard-normal values.
func fillRand(r *rand.Rand, dst []float32) {
	for i := range dst {
		dst[i] = float32(r.NormFloat64())
	}
}

// refGEMM is the plain-scalar oracle: ascending-p accumulation from the bias,
// no zero-skip, no blocking — the arithmetic the determinism contract pins.
func refGEMM(c, a, b, bias []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			if bias != nil {
				s = bias[i]
			}
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// gemmShapes covers ragged dimensions on both sides of every kernel split:
// the 4-row grouping (m mod 4), the 8-wide vector tail (n mod 8), the dot
// kernel's 4/2/1-column blocks, and odd primes that never align with any
// block size.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 1, 8}, {1, 7, 9}, {2, 3, 5},
	{3, 13, 7}, {4, 8, 16}, {5, 17, 23}, {7, 31, 8},
	{8, 64, 64}, {9, 97, 41}, {13, 29, 103}, {16, 5, 200},
	{31, 101, 17}, {64, 64, 64}, {3, 300, 130},
}

func TestGEMMBitEquivalenceAVX2(t *testing.T) {
	if !SIMDSupported(SIMDAVX2) {
		t.Skip("CPU lacks AVX2")
	}
	r := rand.New(rand.NewSource(71))
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, off := range []int{0, 1, 3} {
			a := unalignedFloats(m*k, off)
			b := unalignedFloats(k*n, off)
			fillRand(r, a)
			fillRand(r, b)
			var bias []float32
			if r.Intn(2) == 0 {
				bias = unalignedFloats(m, off)
				fillRand(r, bias)
			}
			want := make([]float32, m*n)
			withTier(t, SIMDOff, func() { gemmInto(want, a, b, bias, m, k, n) })
			got := unalignedFloats(m*n, off)
			withTier(t, SIMDAVX2, func() { gemmInto(got, a, b, bias, m, k, n) })
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("shape %dx%dx%d off %d: element %d: avx2 %08x vs off %08x",
						m, k, n, off, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			ref := make([]float32, m*n)
			refGEMM(ref, a, b, bias, m, k, n)
			for i := range ref {
				if math.Float32bits(want[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("shape %dx%dx%d off %d: element %d: off-tier %08x vs plain scalar %08x",
						m, k, n, off, i, math.Float32bits(want[i]), math.Float32bits(ref[i]))
				}
			}
		}
	}
}

// TestGEMMSerialOracleAcrossTiers pins the public contract: at off and avx2,
// MatMul equals MatMulSerial bit-for-bit on randomized shapes.
func TestGEMMSerialOracleAcrossTiers(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for _, tier := range []SIMDTier{SIMDOff, SIMDAVX2} {
		ran := withTier(t, tier, func() {
			for trial := 0; trial < 25; trial++ {
				m, k, n := 1+r.Intn(50), 1+r.Intn(60), 1+r.Intn(70)
				a := randFilled(r, m, k)
				b := randFilled(r, k, n)
				got, err := matMul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := MatMulSerial(a, b)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, got, want, "MatMul vs serial oracle at "+tier.String())
			}
		})
		if !ran {
			t.Logf("tier %v unsupported, skipped", tier)
		}
	}
}

// TestGEMMPanelPostOpsAcrossTiers drives gemmPanelInto — packed panels, every
// fused epilogue — at avx2 vs off.
func TestGEMMPanelPostOpsAcrossTiers(t *testing.T) {
	if !SIMDSupported(SIMDAVX2) {
		t.Skip("CPU lacks AVX2")
	}
	r := rand.New(rand.NewSource(73))
	for _, post := range []PostOp{PostNone, PostReLU, PostReLU6} {
		for _, sh := range [][3]int{{5, 9, 24}, {4, 16, 31}, {7, 33, 40}, {2, 5, 7}} {
			m, k, jn := sh[0], sh[1], sh[2]
			a := unalignedFloats(m*k, 1)
			bp := unalignedFloats(k*jn, 1)
			bias := unalignedFloats(m, 1)
			fillRand(r, a)
			fillRand(r, bp)
			fillRand(r, bias)
			want := make([]float32, m*jn)
			withTier(t, SIMDOff, func() { gemmPanelInto(want, a, bp, bias, m, k, jn, 0, jn, post) })
			got := make([]float32, m*jn)
			withTier(t, SIMDAVX2, func() { gemmPanelInto(got, a, bp, bias, m, k, jn, 0, jn, post) })
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("post %v shape %v: element %d: avx2 %08x vs off %08x",
						post, sh, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// relErr returns |got-want| / max(|want|, 1).
func relErr(got, want float32) float64 {
	d := math.Abs(float64(got) - float64(want))
	scale := math.Abs(float64(want))
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// fmaTol bounds the divergence of fused rounding plus re-associated
// reductions from the scalar oracle over the k ranges tested here.
const fmaTol = 1e-4

// TestFMAToleranceOracle validates the FMA tier: not bit-identical, but
// within relative error of the scalar reference on GEMM, panel and
// matrix-vector routes.
func TestFMAToleranceOracle(t *testing.T) {
	if !SIMDSupported(SIMDFMA) {
		t.Skip("CPU lacks FMA")
	}
	r := rand.New(rand.NewSource(74))
	withTier(t, SIMDFMA, func() {
		for _, sh := range gemmShapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := unalignedFloats(m*k, 1)
			b := unalignedFloats(k*n, 1)
			bias := unalignedFloats(m, 1)
			fillRand(r, a)
			fillRand(r, b)
			fillRand(r, bias)
			got := make([]float32, m*n)
			gemmInto(got, a, b, bias, m, k, n)
			want := make([]float32, m*n)
			refGEMM(want, a, b, bias, m, k, n)
			for i := range want {
				if e := relErr(got[i], want[i]); e > fmaTol {
					t.Fatalf("shape %dx%dx%d element %d: fma %v vs scalar %v (rel err %g)",
						m, k, n, i, got[i], want[i], e)
				}
			}
		}
		// Matrix-vector: k >= 32 engages the re-associated dot kernel.
		for _, mk := range [][2]int{{5, 32}, {9, 100}, {33, 257}, {4, 31}} {
			m, k := mk[0], mk[1]
			a := unalignedFloats(m*k, 1)
			x := unalignedFloats(k, 1)
			fillRand(r, a)
			fillRand(r, x)
			y := make([]float32, m)
			matVecInto(y, a, x, m, k)
			for i := 0; i < m; i++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * x[p]
				}
				if e := relErr(y[i], s); e > fmaTol {
					t.Fatalf("matVec %dx%d row %d: fma %v vs scalar %v (rel err %g)", m, k, i, y[i], s, e)
				}
			}
		}
	})
}

// TestMatVecBitExactBelowFMA pins the documented limitation: the avx2 tier
// leaves the matrix-vector path scalar (a bit-exact vectorization of a single
// dot product does not exist), so off and avx2 agree bit-for-bit.
func TestMatVecBitExactBelowFMA(t *testing.T) {
	if !SIMDSupported(SIMDAVX2) {
		t.Skip("CPU lacks AVX2")
	}
	r := rand.New(rand.NewSource(75))
	m, k := 37, 211
	a := randFilled(r, m, k)
	x := randFilled(r, k)
	var want, got *Tensor
	withTier(t, SIMDOff, func() { want, _ = matVec(a, x) })
	withTier(t, SIMDAVX2, func() { got, _ = matVec(a, x) })
	requireBitIdentical(t, got, want, "MatVec off vs avx2")
}

// FuzzGEMMBitEquivalence fuzzes shape, seed and slice offset; whatever the
// inputs, avx2 must match off bit-for-bit.
func FuzzGEMMBitEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(9), uint8(17), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(13), uint8(64), uint8(129), uint8(3))
	f.Add(int64(4), uint8(5), uint8(251), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, mr, kr, nr, offr uint8) {
		if !SIMDSupported(SIMDAVX2) {
			t.Skip("CPU lacks AVX2")
		}
		m, k, n := 1+int(mr)%96, 1+int(kr), 1+int(nr)
		off := int(offr) % 4
		r := rand.New(rand.NewSource(seed))
		a := unalignedFloats(m*k, off)
		b := unalignedFloats(k*n, off)
		bias := unalignedFloats(m, off)
		fillRand(r, a)
		fillRand(r, b)
		fillRand(r, bias)
		if seed%2 == 0 {
			bias = nil
		}
		want := make([]float32, m*n)
		withTier(t, SIMDOff, func() { gemmInto(want, a, b, bias, m, k, n) })
		got := make([]float32, m*n)
		withTier(t, SIMDAVX2, func() { gemmInto(got, a, b, bias, m, k, n) })
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("m=%d k=%d n=%d off=%d seed=%d: element %d: avx2 %08x vs off %08x",
					m, k, n, off, seed, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

func TestParseSIMDTier(t *testing.T) {
	cases := []struct {
		in   string
		tier SIMDTier
		ok   bool
	}{
		{"off", SIMDOff, true}, {"scalar", SIMDOff, true}, {"none", SIMDOff, true},
		{"avx2", SIMDAVX2, true}, {"AVX2", SIMDAVX2, true}, {"fma", SIMDFMA, true},
		{" fma ", SIMDFMA, true}, {"", defaultSIMDTier(), true}, {"auto", defaultSIMDTier(), true},
		{"avx512", SIMDOff, false}, {"yes", SIMDOff, false},
	}
	for _, tc := range cases {
		tier, ok := ParseSIMDTier(tc.in)
		if tier != tc.tier || ok != tc.ok {
			t.Errorf("ParseSIMDTier(%q) = (%v, %v), want (%v, %v)", tc.in, tier, ok, tc.tier, tc.ok)
		}
	}
	for tier, s := range map[SIMDTier]string{SIMDOff: "off", SIMDAVX2: "avx2", SIMDFMA: "fma"} {
		if tier.String() != s {
			t.Errorf("String(%d) = %q, want %q", tier, tier.String(), s)
		}
	}
}

func TestSetSIMDClampsToSupported(t *testing.T) {
	prev := ActiveSIMD()
	defer SetSIMD(prev)
	SetSIMD(SIMDFMA)
	if got := ActiveSIMD(); got > SupportedSIMD() {
		t.Errorf("ActiveSIMD after SetSIMD(fma) = %v, exceeds supported %v", got, SupportedSIMD())
	}
	SetSIMD(SIMDOff)
	if got := ActiveSIMD(); got != SIMDOff {
		t.Errorf("ActiveSIMD after SetSIMD(off) = %v", got)
	}
	if restored := SetSIMD(prev); restored != SIMDOff {
		t.Errorf("SetSIMD returned %v, want previous off", restored)
	}
}

func TestCurrentKernelConfig(t *testing.T) {
	cfg := CurrentKernelConfig()
	if cfg.SIMD != ActiveSIMD().String() {
		t.Errorf("KernelConfig.SIMD = %q, want %q", cfg.SIMD, ActiveSIMD().String())
	}
	if cfg.FlopThreshold != ParallelFlopThreshold() || cfg.PanelBytes != GEMMPanelBytes() {
		t.Errorf("KernelConfig knobs = (%d, %d), want (%d, %d)",
			cfg.FlopThreshold, cfg.PanelBytes, ParallelFlopThreshold(), GEMMPanelBytes())
	}
}

// TestSetSIMDConcurrentWithKernels swaps tiers while GEMMs run on other
// goroutines; the race detector proves the dispatch is safely atomic, and
// every result must match one of the bit-exact tiers' output (tier swaps
// never tear a single kernel invocation... each invocation reads the tier
// per dispatch point, so a swap mid-GEMM may mix kernels across panels — the
// off<->avx2 swap keeps that bit-exact by construction).
func TestSetSIMDConcurrentWithKernels(t *testing.T) {
	if !SIMDSupported(SIMDAVX2) {
		t.Skip("CPU lacks AVX2")
	}
	prev := ActiveSIMD()
	defer SetSIMD(prev)
	r := rand.New(rand.NewSource(76))
	m, k, n := 16, 40, 48
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillRand(r, a)
	fillRand(r, b)
	want := make([]float32, m*n)
	SetSIMD(SIMDOff)
	gemmInto(want, a, b, nil, m, k, n)

	stop := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				SetSIMD(SIMDAVX2)
			} else {
				SetSIMD(SIMDOff)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, m*n)
			for iter := 0; iter < 200; iter++ {
				gemmInto(c, a, b, nil, m, k, n)
				for i := range want {
					if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
						t.Errorf("concurrent tier swap: element %d diverged", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapDone
}
