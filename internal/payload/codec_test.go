package payload

import (
	"bytes"
	"encoding/hex"
	"testing"

	"mlperf/internal/metrics"
)

// The codec's bytes are what the accuracy log stores and the benchmark's
// byte-exact gate compares: these goldens pin them.
func TestGoldenBinaryBytes(t *testing.T) {
	golden := []struct {
		name string
		got  []byte
		hex  string
	}{
		{"class 7", AppendClass(nil, 7), "01010e"},
		{"class -1", AppendClass(nil, -1), "010101"},
		{"class 0", AppendClass(nil, 0), "010100"},
		{"tokens empty", AppendTokens(nil, nil), "010300"},
		{"tokens 4,8,15", AppendTokens(nil, []int{4, 8, 15}), "010303" + "08101e"},
		{"boxes empty", AppendBoxes(nil, nil), "010200"},
		{"boxes one", AppendBoxes(nil, []metrics.Box{{X1: 1, Y1: 2, X2: 3, Y2: 4, Class: 5, Score: 0.5}}),
			"010201" +
				"000000000000f03f" + // X1 = 1.0
				"0000000000000040" + // Y1 = 2.0
				"0000000000000840" + // X2 = 3.0
				"0000000000001040" + // Y2 = 4.0
				"0a" + //               class 5, zigzag
				"000000000000e03f"}, // score = 0.5
	}
	for _, g := range golden {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s = %x, want %x", g.name, g.got, want)
		}
	}
}

// Lying length prefixes must be rejected before any count-sized allocation:
// these payloads declare astronomically more elements than their bytes can
// hold.
func TestDecodeRejectsLyingCounts(t *testing.T) {
	hugeTokens := append([]byte{BinaryVersion, kindTokens}, 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := DecodeTokens(hugeTokens); err == nil {
		t.Error("lying token count should be rejected")
	}
	if _, err := DecodeTokensInto(nil, hugeTokens); err == nil {
		t.Error("lying token count should be rejected by DecodeTokensInto")
	}
	hugeBoxes := append([]byte{BinaryVersion, kindBoxes}, 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := DecodeBoxes(hugeBoxes); err == nil {
		t.Error("lying box count should be rejected")
	}
	// Truncated variants: a valid header whose fields run out of bytes.
	if _, err := DecodeBoxes([]byte{BinaryVersion, kindBoxes, 0x01, 0x00}); err == nil {
		t.Error("truncated box should be rejected")
	}
	if _, err := DecodeClass([]byte{BinaryVersion, kindClass}); err == nil {
		t.Error("missing class varint should be rejected")
	}
	if _, err := DecodeClass([]byte{BinaryVersion, kindClass, 0x0e, 0x00}); err == nil {
		t.Error("trailing bytes after class should be rejected")
	}
	if _, err := DecodeClass([]byte{BinaryVersion, kindTokens, 0x00}); err == nil {
		t.Error("kind mismatch should be rejected")
	}
	if _, err := DecodeClass([]byte{0x7f, kindClass, 0x00}); err == nil {
		t.Error("unknown version byte should be rejected")
	}
	if _, err := DecodeClass([]byte(`{"class":7}`)); err == nil {
		t.Error("a JSON payload should be rejected")
	}
	if _, err := DecodeClass(nil); err == nil {
		t.Error("empty payload should be rejected")
	}
}

func TestDecodeTokensInto(t *testing.T) {
	tokens := []int{9, -9, 0, 127, -128}
	data := AppendTokens(nil, tokens)
	scratch := make([]int, 0, 16)
	got, err := DecodeTokensInto(scratch, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tokens) {
		t.Fatalf("decoded %d tokens, want %d", len(got), len(tokens))
	}
	for i := range tokens {
		if got[i] != tokens[i] {
			t.Errorf("token %d: %d != %d", i, got[i], tokens[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("DecodeTokensInto should reuse the caller's backing array")
	}
	// An empty hypothesis decodes as nil into a nil destination.
	if got, err := DecodeTokensInto(nil, AppendTokens(nil, nil)); err != nil || got != nil {
		t.Errorf("empty hypothesis = %v, %v; want nil", got, err)
	}
}

// The steady-state swarm path runs these appenders and the in-place decoder
// millions of times per run; pin them at zero allocations.
func TestCodecZeroAlloc(t *testing.T) {
	dst := make([]byte, 0, 256)
	boxes := []metrics.Box{{X1: 1, Y1: 2, X2: 3, Y2: 4, Class: 5, Score: 0.5}}
	tokens := []int{4, 8, 15, 16, 23, 42}
	scratch := make([]int, 0, 16)
	encoded := AppendTokens(nil, tokens)

	if n := testing.AllocsPerRun(100, func() { dst = AppendClass(dst[:0], 7) }); n != 0 {
		t.Errorf("AppendClass allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst = AppendBoxes(dst[:0], boxes) }); n != 0 {
		t.Errorf("AppendBoxes allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst = AppendTokens(dst[:0], tokens) }); n != 0 {
		t.Errorf("AppendTokens allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var err error
		scratch, err = DecodeTokensInto(scratch[:0], encoded)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeTokensInto allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeClass(dst[:0]); err == nil {
			t.Fatal("empty payload decoded")
		}
	}); n > 2 {
		t.Errorf("DecodeClass error path allocates %v/op", n)
	}
}
