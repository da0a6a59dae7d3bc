package payload

import (
	"testing"

	"mlperf/internal/metrics"
)

func TestClassRoundTrip(t *testing.T) {
	for _, class := range []int{7, 0, -12} {
		got, err := DecodeClass(AppendClass(nil, class))
		if err != nil {
			t.Fatal(err)
		}
		if got != class {
			t.Errorf("round trip = %d, want %d", got, class)
		}
	}
	if _, err := DecodeClass([]byte("garbage")); err == nil {
		t.Error("garbage input: expected error")
	}
}

func TestBoxesRoundTrip(t *testing.T) {
	boxes := []metrics.Box{
		{X1: 0.1, Y1: 0.2, X2: 0.5, Y2: 0.6, Class: 3, Score: 0.9},
		{X1: -1, Y1: 0, X2: 4096, Y2: 2.5, Class: -7, Score: 0.125},
	}
	got, err := DecodeBoxes(AppendBoxes(nil, boxes))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != boxes[0] || got[1] != boxes[1] {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeBoxes([]byte("{")); err == nil {
		t.Error("garbage input: expected error")
	}
	gotEmpty, err := DecodeBoxes(AppendBoxes(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if gotEmpty != nil {
		t.Errorf("empty boxes round trip = %+v", gotEmpty)
	}
}

func TestTokensRoundTrip(t *testing.T) {
	tokens := []int{4, 8, 15, 16, 23, 42, 0, -3, 1 << 20}
	got, err := DecodeTokens(AppendTokens(nil, tokens))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tokens) {
		t.Fatalf("length mismatch")
	}
	for i := range tokens {
		if got[i] != tokens[i] {
			t.Errorf("token %d = %d, want %d", i, got[i], tokens[i])
		}
	}
	if _, err := DecodeTokens([]byte("[")); err == nil {
		t.Error("garbage input: expected error")
	}
	if empty, err := DecodeTokens(AppendTokens(nil, nil)); err != nil || empty != nil {
		t.Errorf("empty hypothesis = %v, %v; want nil", empty, err)
	}
}
