package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load: one track per layer, a complete event
// per span, and a flow arrow per query from its root to each span it caused.
func writeChromeTrace(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(ev map[string]any) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		_, err = w.Write(data)
		return err
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if err := emit(map[string]any{"ph": "M", "pid": 1, "tid": int(k), "name": "thread_name", "args": map[string]any{"name": spanLayers[k]}}); err != nil {
			return err
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, s := range spans {
		if s.End < s.Start || (s.Kind == spanPredict && !s.Lead) {
			continue
		}
		if err := emit(map[string]any{"ph": "X", "pid": 1, "tid": int(s.Kind), "name": spanNames[s.Kind],
			"ts": us(s.Start), "dur": us(s.dur()), "args": map[string]any{"query": s.Query, "samples": s.N, "run": s.Run}}); err != nil {
			return err
		}
		if s.Parent < 0 || int(s.Parent) >= len(spans) {
			continue
		}
		// Flow: leaves the causing span at this span's start, enters this one.
		parent := spans[s.Parent]
		from := max(s.Start, parent.Start)
		id := fmt.Sprintf("%d.%d", s.Run, s.Query)
		if err := emit(map[string]any{"ph": "s", "pid": 1, "tid": int(parent.Kind), "name": "query", "cat": "query", "id": id, "ts": us(from)}); err != nil {
			return err
		}
		if err := emit(map[string]any{"ph": "f", "bp": "e", "pid": 1, "tid": int(s.Kind), "name": "query", "cat": "query", "id": id, "ts": us(s.Start)}); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\n]}")
	return w.Flush()
}
