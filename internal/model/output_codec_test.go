package model

import (
	"testing"

	"mlperf/internal/dataset"
	"mlperf/internal/metrics"
	"mlperf/internal/payload"
)

// Every Output kind must decode back to the prediction it encodes, whether
// it is encoded fresh (Encode) or appended behind a frame prefix (AppendTo).
func TestOutputEncodeRoundTrip(t *testing.T) {
	outputs := []Output{
		{Kind: dataset.KindImageClassification, Class: 42},
		{Kind: dataset.KindImageClassification, Class: 0},
		{Kind: dataset.KindObjectDetection, Boxes: []metrics.Box{
			{X1: 0.25, Y1: 0.5, X2: 0.75, Y2: 1, Class: 17, Score: 0.875},
		}},
		{Kind: dataset.KindObjectDetection},
		{Kind: dataset.KindTranslation, Tokens: []int{1, 0, 512, 3}},
	}
	for i, out := range outputs {
		data, err := out.Encode()
		if err != nil {
			t.Fatalf("output %d: encode: %v", i, err)
		}
		switch out.Kind {
		case dataset.KindImageClassification:
			got, err := payload.DecodeClass(data)
			if err != nil || got != out.Class {
				t.Errorf("output %d: class decode %d, %v", i, got, err)
			}
		case dataset.KindObjectDetection:
			got, err := payload.DecodeBoxes(data)
			if err != nil || len(got) != len(out.Boxes) {
				t.Fatalf("output %d: box decode %v (%d boxes)", i, err, len(got))
			}
			for j := range got {
				if got[j] != out.Boxes[j] {
					t.Errorf("output %d box %d: %+v != %+v", i, j, got[j], out.Boxes[j])
				}
			}
		case dataset.KindTranslation:
			got, err := payload.DecodeTokens(data)
			if err != nil || len(got) != len(out.Tokens) {
				t.Fatalf("output %d: token decode %v", i, err)
			}
			for j := range got {
				if got[j] != out.Tokens[j] {
					t.Errorf("output %d token %d: %d != %d", i, j, got[j], out.Tokens[j])
				}
			}
		}
		prefixed, err := out.AppendTo([]byte("hdr"))
		if err != nil || string(prefixed) != "hdr"+string(data) {
			t.Errorf("output %d: AppendTo behind a prefix diverges from Encode", i)
		}
	}
	if _, err := (Output{Kind: dataset.Kind(99)}).Encode(); err == nil {
		t.Error("unknown output kind encoded without error")
	}
}
