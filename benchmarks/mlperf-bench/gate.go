package main

import (
	"bytes"
	"fmt"
	"sort"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/tensor"
)

// referenceOutputs runs every sample of the data set through the engine alone,
// one sample per Predict call, and returns the encoded outputs by sample
// index. This is the reference the SUT's accuracy log must equal byte for
// byte: the determinism contract across batch shape, worker count and wire.
func referenceOutputs(engine model.Engine, ds dataset.Dataset) ([][]byte, error) {
	scratch := tensor.NewScratch()
	ref := make([][]byte, ds.Size())
	for i := range ref {
		sample, err := ds.Sample(i)
		if err != nil {
			return nil, err
		}
		scratch.Reset()
		out, err := engine.Predict([]*dataset.Sample{sample}, scratch)
		if err != nil {
			return nil, fmt.Errorf("reference predict of sample %d: %w", i, err)
		}
		if len(out) != 1 {
			return nil, fmt.Errorf("reference predict of sample %d returned %d outputs", i, len(out))
		}
		if ref[i], err = out[0].Encode(); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// compareLog counts the samples of an accuracy log that are missing,
// duplicated or differ from the reference.
func compareLog(log []loadgen.AccuracyEntry, ref [][]byte) (mismatches int, first string) {
	note := func(format string, args ...any) {
		mismatches++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	sorted := append([]loadgen.AccuracyEntry(nil), log...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].SampleIndex < sorted[j].SampleIndex })
	next := 0
	for _, e := range sorted {
		for ; next < e.SampleIndex && next < len(ref); next++ {
			note("sample %d missing from the accuracy log", next)
		}
		switch {
		case e.SampleIndex < 0 || e.SampleIndex >= len(ref):
			note("accuracy log names sample %d outside the data set", e.SampleIndex)
		case e.SampleIndex < next:
			note("sample %d logged more than once", e.SampleIndex)
		default:
			if !bytes.Equal(e.Data, ref[e.SampleIndex]) {
				note("sample %d: SUT answered %x, reference %x", e.SampleIndex, e.Data, ref[e.SampleIndex])
			}
			next = e.SampleIndex + 1
		}
	}
	for ; next < len(ref); next++ {
		note("sample %d missing from the accuracy log", next)
	}
	return mismatches, first
}

// gate runs the workload's scenario in accuracy mode through its own SUT
// (decorated or not) and checks the log against the reference. It returns
// operations attempted and failed; a mismatch is a failed operation.
func (d *deployment) gate(seed uint64) (attempted, failed int, detail string, err error) {
	ref, err := referenceOutputs(d.asm.Engine, d.asm.Dataset)
	if err != nil {
		return 0, 0, "", err
	}
	ts := d.settings(d.w.scenario, seedsFor(seed, phaseGate, 0), 0, serverFixedQPS, len(ref))
	ts.Mode = loadgen.AccuracyMode
	res, err := d.run(ts)
	if err != nil {
		return 0, 0, "", err
	}
	mismatches, first := compareLog(res.AccuracyLog, ref)
	failed = max(res.failed, mismatches)
	if failed > 0 && first == "" {
		first = fmt.Sprintf("%d of %d accuracy-mode samples dropped or errored", res.failed, res.attempted)
	}
	return len(ref), failed, first, nil
}
