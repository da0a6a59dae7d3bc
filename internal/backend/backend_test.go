package backend

import (
	"testing"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/payload"
	"mlperf/internal/simhw"
	"mlperf/internal/tensor"
)

// collectQuery builds a query whose completion is observable in tests.
func collectQuery(id uint64, indices []int) (*loadgen.Query, chan []loadgen.Response) {
	q := &loadgen.Query{ID: id}
	var sid uint64 = id * 1000
	for _, idx := range indices {
		q.Samples = append(q.Samples, loadgen.QuerySample{ID: sid, Index: idx})
		sid++
	}
	done := make(chan []loadgen.Response, 1)
	q.SetCompletionHandler(func(_ *loadgen.Query, rs []loadgen.Response) { done <- rs })
	q.Issued = time.Now()
	return q, done
}

func newClassificationStore(t *testing.T, samples int) (*dataset.QSL, *dataset.SyntheticImages) {
	t.Helper()
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{
		Samples: samples, Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	qsl, err := dataset.NewQSL(ds)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, samples)
	for i := range indices {
		indices[i] = i
	}
	if err := qsl.LoadSamplesToRAM(indices); err != nil {
		t.Fatal(err)
	}
	return qsl, ds
}

func TestNativeClassificationBackend(t *testing.T) {
	qsl, _ := newClassificationStore(t, 16)
	classifier, err := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sut, err := NewNative(NativeConfig{
		Name: "mobilenet-sut", Engine: classifier, Store: qsl, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sut.Name() != "mobilenet-sut" {
		t.Errorf("name = %s", sut.Name())
	}
	q, done := collectQuery(1, []int{0, 1, 2, 3})
	sut.IssueQuery(q)
	select {
	case rs := <-done:
		if len(rs) != 4 {
			t.Fatalf("got %d responses", len(rs))
		}
		for _, r := range rs {
			class, err := payload.DecodeClass(r.Data)
			if err != nil {
				t.Fatal(err)
			}
			if class < 0 || class >= 10 {
				t.Errorf("class %d out of range", class)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query never completed")
	}
	sut.FlushQueries()
	sut.Wait()
	if len(sut.Errors()) != 0 {
		t.Errorf("unexpected errors: %v", sut.Errors())
	}
}

func TestNativeDetectionAndTranslationBackends(t *testing.T) {
	// Detection.
	det, err := dataset.NewSyntheticDetection(dataset.ImageConfig{
		Samples: 8, Classes: 5, Channels: 3, Height: 16, Width: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	detQSL, _ := dataset.NewQSL(det)
	if err := detQSL.LoadSamplesToRAM([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	detector, err := model.New(model.SSDMobileNet, model.Config{Classes: 5, ImageSize: 16, Seed: 3, ScoreThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	detSUT, err := NewNative(NativeConfig{Engine: detector, Store: detQSL})
	if err != nil {
		t.Fatal(err)
	}
	q, done := collectQuery(1, []int{0, 1})
	detSUT.IssueQuery(q)
	rs := <-done
	if _, err := payload.DecodeBoxes(rs[0].Data); err != nil {
		t.Errorf("detection payload: %v", err)
	}
	detSUT.Wait()

	// Translation.
	text, err := dataset.NewSyntheticText(dataset.TextConfig{Samples: 8, Vocab: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	textQSL, _ := dataset.NewQSL(text)
	if err := textQSL.LoadSamplesToRAM([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	translator, err := model.New(model.GNMT, model.Config{Vocab: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trSUT, err := NewNative(NativeConfig{Engine: translator, Store: textQSL})
	if err != nil {
		t.Fatal(err)
	}
	q2, done2 := collectQuery(2, []int{0})
	trSUT.IssueQuery(q2)
	rs2 := <-done2
	if _, err := payload.DecodeTokens(rs2[0].Data); err != nil {
		t.Errorf("translation payload: %v", err)
	}
	trSUT.Wait()
}

// badKindEngine reports an out-of-range task kind.
type badKindEngine struct{ model.Engine }

func (badKindEngine) Name() string       { return "bad-kind" }
func (badKindEngine) Kind() dataset.Kind { return dataset.Kind(99) }

func TestNativeConfigErrors(t *testing.T) {
	qsl, _ := newClassificationStore(t, 4)
	classifier, _ := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	cases := []NativeConfig{
		{Engine: classifier},                  // no store
		{Store: qsl},                          // no engine
		{Engine: badKindEngine{}, Store: qsl}, // bad kind
	}
	for i, cfg := range cases {
		if _, err := NewNative(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestNativeDefaultsNameFromEngine(t *testing.T) {
	qsl, _ := newClassificationStore(t, 4)
	classifier, _ := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	sut, err := NewNative(NativeConfig{Engine: classifier, Store: qsl})
	if err != nil {
		t.Fatal(err)
	}
	if sut.Name() != classifier.Name() {
		t.Errorf("default name = %q, want engine name %q", sut.Name(), classifier.Name())
	}
	if sut.Engine() != model.Engine(classifier) {
		t.Error("Engine() does not return the configured engine")
	}
}

// poisonStore serves a wrong-shaped image for one index so a batched Predict
// over a chunk containing it fails as a whole.
type poisonStore struct {
	inner  dataset.Store
	poison int
}

func (p *poisonStore) Get(index int) (*dataset.Sample, error) {
	if index == p.poison {
		return &dataset.Sample{Index: index, Image: tensor.MustNew(1, 2, 2)}, nil
	}
	return p.inner.Get(index)
}

// TestNativeIsolatesBadSampleInBatchedChunk: one bad sample must not null
// the responses of the healthy samples sharing its chunk.
func TestNativeIsolatesBadSampleInBatchedChunk(t *testing.T) {
	qsl, _ := newClassificationStore(t, 8)
	classifier, err := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The preferred-batch grain floor puts all 8 samples in one chunk, so
	// the poisoned sample 1 shares its chunk with healthy samples and the
	// batched pass over that chunk fails as a whole.
	sut, err := NewNative(NativeConfig{
		Engine: classifier, Store: &poisonStore{inner: qsl, poison: 1}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, done := collectQuery(1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	sut.IssueQuery(q)
	rs := <-done
	sut.Wait()
	if len(rs) != 8 {
		t.Fatalf("got %d responses, want 8", len(rs))
	}
	nilData := 0
	for _, r := range rs {
		if r.Data == nil {
			nilData++
		} else if _, err := payload.DecodeClass(r.Data); err != nil {
			t.Errorf("healthy sample produced bad payload: %v", err)
		}
	}
	if nilData != 1 {
		t.Errorf("%d responses have nil data, want exactly the poisoned one", nilData)
	}
	if len(sut.Errors()) == 0 {
		t.Error("expected the poisoned sample's error to be recorded")
	}
}

func TestNativeRecordsErrorsForUnloadedSamples(t *testing.T) {
	ds, err := dataset.NewSyntheticImages(dataset.ImageConfig{Samples: 8, Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	qsl, _ := dataset.NewQSL(ds) // nothing loaded
	classifier, _ := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	sut, err := NewNative(NativeConfig{Engine: classifier, Store: qsl})
	if err != nil {
		t.Fatal(err)
	}
	q, done := collectQuery(1, []int{3})
	sut.IssueQuery(q)
	<-done
	sut.Wait()
	if len(sut.Errors()) == 0 {
		t.Error("expected an error for accessing an unloaded sample")
	}
}

// TestNativeConfigTuningOverrides: the tuning fields forward to the tensor
// engine's process-wide knobs and results are bit-identical on both sides of
// the threshold (the batched query below runs the parallel path once with
// everything forked and once fully inline).
func TestNativeConfigTuningOverrides(t *testing.T) {
	defer tensor.SetParallelFlopThreshold(0)
	defer tensor.SetGEMMPanelBytes(0)
	qsl, _ := newClassificationStore(t, 8)
	classifier, err := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(threshold, panel int) []loadgen.Response {
		sut, err := NewNative(NativeConfig{
			Engine: classifier, Store: qsl, Workers: 2,
			FlopThreshold: threshold, PanelBytes: panel,
		})
		if err != nil {
			t.Fatal(err)
		}
		if threshold > 0 && tensor.ParallelFlopThreshold() != threshold {
			t.Fatalf("flop threshold = %d after NewNative, want %d", tensor.ParallelFlopThreshold(), threshold)
		}
		if panel > 0 && tensor.GEMMPanelBytes() != panel {
			t.Fatalf("panel bytes = %d after NewNative, want %d", tensor.GEMMPanelBytes(), panel)
		}
		q, done := collectQuery(1, []int{0, 1, 2, 3, 4, 5, 6, 7})
		sut.IssueQuery(q)
		rs := <-done
		sut.Wait()
		if errs := sut.Errors(); len(errs) != 0 {
			t.Fatal(errs[0])
		}
		return rs
	}
	below := run(1, 32<<10) // every kernel above threshold: parallel dispatch
	above := run(1<<30, 0)  // every kernel below threshold: inline
	if len(below) != len(above) {
		t.Fatalf("response counts differ: %d vs %d", len(below), len(above))
	}
	for i := range below {
		a, err := payload.DecodeClass(below[i].Data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := payload.DecodeClass(above[i].Data)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("sample %d: class %d on parallel side, %d on serial side", i, a, b)
		}
	}
}

// TestBatchGrainFloorsAtPreferredBatch: chunks never fragment below the
// engine's derived micro-batch, and never exceed the query.
func TestBatchGrainFloorsAtPreferredBatch(t *testing.T) {
	qsl, _ := newClassificationStore(t, 4)
	classifier, err := model.New(model.MobileNetV1, model.Config{Classes: 10, ImageSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sut, err := NewNative(NativeConfig{Engine: classifier, Store: qsl, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	pref := classifier.(model.BatchSizer).PreferredBatch()
	if sut.preferredBatch != pref {
		t.Fatalf("backend recorded preferred batch %d, want %d", sut.preferredBatch, pref)
	}
	// Eight micro-batches' worth across 8 workers: the floor applies in full
	// (rebalancing alone would shred this into chunks of 8) and every worker
	// still gets exactly one chunk.
	if got := sut.batchGrain(8 * pref); got != pref {
		t.Errorf("batchGrain(%d) = %d, want the preferred batch %d", 8*pref, got, pref)
	}
	// The floor is capped at an even split so it never idles workers: 4
	// micro-batches' worth over 8 workers yields 8 even chunks, not 4
	// preferred-size ones.
	if got := sut.batchGrain(4 * pref); got != pref/2 {
		t.Errorf("batchGrain(%d) = %d, want the even split %d", 4*pref, got, pref/2)
	}
	// Queries smaller than the worker count spread one sample per worker.
	if got := sut.batchGrain(3); got != 1 {
		t.Errorf("batchGrain(3) = %d, want 1", got)
	}
	// An engine without BatchSizer keeps the rebalancing-first grain: the
	// embedded interface promotes Engine's methods only.
	plain, err := NewNative(NativeConfig{
		Engine: struct{ model.Engine }{classifier}, Store: qsl, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.batchGrain(64); got != 8 {
		t.Errorf("plain batchGrain(64) = %d, want 8", got)
	}
}

func TestSimulatedBackend(t *testing.T) {
	platform, err := simhw.FindPlatform("desktop-cpu-c1")
	if err != nil {
		t.Fatal(err)
	}
	w := simhw.StandardWorkloads()["mobilenet-v1"]
	sut, err := NewSimulated(SimulatedConfig{Platform: platform, Workload: w, TimeScale: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sut.Name() == "" || sut.Platform().Name != "desktop-cpu-c1" {
		t.Error("bad identity")
	}
	start := time.Now()
	q, done := collectQuery(1, []int{0, 1, 2, 3})
	sut.IssueQuery(q)
	select {
	case rs := <-done:
		if len(rs) != 4 {
			t.Fatalf("got %d responses", len(rs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("simulated query never completed")
	}
	if time.Since(start) > time.Second {
		t.Error("time-scaled simulation took too long")
	}
	sut.FlushQueries()
	sut.Wait()
	if len(sut.Errors()) != 0 {
		t.Errorf("unexpected errors: %v", sut.Errors())
	}
}

func TestSimulatedBackendOracle(t *testing.T) {
	platform, _ := simhw.FindPlatform("desktop-cpu-c1")
	w := simhw.StandardWorkloads()["mobilenet-v1"]
	sut, err := NewSimulated(SimulatedConfig{
		Platform: platform, Workload: w, TimeScale: 1000, Seed: 5,
		Oracle: func(idx int) ([]byte, error) { return payload.AppendClass(nil, idx%3), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	q, done := collectQuery(1, []int{7})
	sut.IssueQuery(q)
	rs := <-done
	class, err := payload.DecodeClass(rs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if class != 1 {
		t.Errorf("oracle payload = %d, want 1", class)
	}
	sut.Wait()
}

func TestSimulatedConfigErrors(t *testing.T) {
	w := simhw.StandardWorkloads()["mobilenet-v1"]
	if _, err := NewSimulated(SimulatedConfig{Workload: w}); err == nil {
		t.Error("invalid platform: expected error")
	}
	platform, _ := simhw.FindPlatform("desktop-cpu-c1")
	if _, err := NewSimulated(SimulatedConfig{Platform: platform}); err == nil {
		t.Error("invalid workload: expected error")
	}
	if _, err := NewSimulated(SimulatedConfig{Platform: platform, Workload: w, TimeScale: -1}); err == nil {
		t.Error("negative time scale: expected error")
	}
}
