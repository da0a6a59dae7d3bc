package stats

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestPercentileNearestRank(t *testing.T) {
	samples := []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50), ms(60), ms(70), ms(80), ms(90), ms(100)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.50, ms(50)},
		{0.90, ms(90)},
		{0.99, ms(100)},
		{1.00, ms(100)},
		{0.05, ms(10)},
	}
	for _, c := range cases {
		got, err := Percentile(samples, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 0.9); err == nil {
		t.Error("empty samples: expected error")
	}
	if _, err := Percentile([]time.Duration{ms(1)}, 0); err == nil {
		t.Error("p=0: expected error")
	}
	if _, err := Percentile([]time.Duration{ms(1)}, 1.5); err == nil {
		t.Error("p>1: expected error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	samples := []time.Duration{ms(30), ms(10), ms(20)}
	if _, err := Percentile(samples, 0.5); err != nil {
		t.Fatal(err)
	}
	if samples[0] != ms(30) || samples[1] != ms(10) || samples[2] != ms(20) {
		t.Error("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]time.Duration, 0, 100)
	for i := 1; i <= 100; i++ {
		samples = append(samples, ms(i))
	}
	s, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Min != ms(1) || s.Max != ms(100) {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != ms(50) || s.P90 != ms(90) || s.P99 != ms(99) {
		t.Errorf("P50/P90/P99 = %v/%v/%v", s.P50, s.P90, s.P99)
	}
	if s.Mean != ms(50)+500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", s.Mean)
	}
}

func TestLatencySummaryQuantile(t *testing.T) {
	s, err := Summarize([]time.Duration{ms(40), ms(10), ms(30), ms(20)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.25, ms(10)}, {0.5, ms(20)}, {0.51, ms(30)}, {1, ms(40)}} {
		if got, err := s.Quantile(c.p); err != nil || got != c.want {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := s.Quantile(p); !errors.Is(err, ErrInvalidProbability) {
			t.Errorf("Quantile(%v): err = %v, want ErrInvalidProbability", p, err)
		}
	}
	if _, err := (LatencySummary{}).Quantile(0.5); err == nil {
		t.Error("empty summary: expected error")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestFractionOver(t *testing.T) {
	samples := []time.Duration{ms(5), ms(10), ms(15), ms(20)}
	if f := FractionOver(samples, ms(10)); f != 0.5 {
		t.Errorf("FractionOver = %v, want 0.5", f)
	}
	if f := FractionOver(samples, ms(100)); f != 0 {
		t.Errorf("FractionOver = %v, want 0", f)
	}
	if f := FractionOver(nil, ms(1)); f != 0 {
		t.Errorf("FractionOver(nil) = %v, want 0", f)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []int16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(int(v)+40000) * time.Microsecond
		}
		p := 0.01 + 0.99*float64(pRaw)/255
		got, err := Percentile(samples, p)
		if err != nil {
			return false
		}
		s, err := Summarize(samples)
		if err != nil {
			return false
		}
		// Any percentile lies within [min, max] and is one of the samples.
		if got < s.Min || got > s.Max {
			return false
		}
		found := false
		for _, v := range samples {
			if v == got {
				found = true
				break
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
