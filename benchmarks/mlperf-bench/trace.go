package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/loadgen"
	"mlperf/internal/model"
	"mlperf/internal/tensor"
)

// The traced run sees the program only from outside: the benchmark wraps the
// three interfaces it hands to the program — the SUT given to the LoadGen,
// the model.Engine and the sample store given to the backend or server — and
// records a span around every call through them. Spans inside the program
// are a later change (ROADMAP item 5).

// spanKind names a span; its layer is the module whose boundary it times.
type spanKind uint8

const (
	// spanQuery is a query as the LoadGen judges it: from its scheduled
	// arrival (its issue time where the scenario has no schedule) to
	// completion. Root of a query's tree; self time is the schedule lag.
	spanQuery spanKind = iota
	// spanSUT is the query inside the SUT: IssueQuery entry to completion.
	// On a wire workload its self time is client, wire and server together.
	spanSUT
	// spanGet is one sample-store Get.
	spanGet
	// spanPredict is one Engine.Predict call, recorded once per query that
	// has a sample in the batch.
	spanPredict
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"loadgen.query", "backend.query", "dataset.get", "model.predict"}
var spanLayers = [numSpanKinds]string{"loadgen", "backend", "dataset", "model"}

// span is one timed interval at a layer boundary.
type span struct {
	Kind spanKind
	// Lead marks the first span recorded for a Predict call; per-call
	// statistics count lead spans only.
	Lead bool
	// N is the number of samples the call covered.
	N int32
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int32
	// Run numbers the LoadGen run the span belongs to.
	Run int32
	// Query is the LoadGen query id, shared by every span of one request.
	Query uint64
	// Start and End are nanoseconds since the tracer's epoch.
	Start, End int64
	// Lateness, on a root, is Issued minus Scheduled: the schedule lag plus
	// the unknown run start, which finishRun subtracts.
	Lateness int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns the span ring and the boundary counters.
type tracer struct {
	epoch   time.Time
	spans   []span // preallocated; never grows
	next    atomic.Int64
	dropped atomic.Int64
	run     atomic.Int32

	mu sync.Mutex
	// bySample maps a sample index to the SUT spans of in-flight
	// single-sample queries holding it, bulk lists in-flight multi-sample
	// queries; together they let Get and Predict spans find the query that
	// caused them without any help from the program.
	bySample map[int][]int32
	bulk     []int32
	// issueBlock collects how long each IssueQuery call kept the LoadGen's
	// issue loop.
	issueBlock []int64

	getCalls, getNs                         atomic.Int64
	predictCalls, predictSamples, predictNs atomic.Int64
}

// spanCapacity bounds the ring: two traced repetitions of the largest
// workload record about 300k spans.
const spanCapacity = 1 << 19

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, spanCapacity), bySample: make(map[int][]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve claims the next ring slot, or -1 when the ring is full (the span
// is counted as dropped, never overwritten).
func (t *tracer) reserve() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) record(s span) int32 {
	i := t.reserve()
	if i >= 0 {
		s.Run = t.run.Load()
		t.spans[i] = s
	}
	return i
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// beginRun starts a new LoadGen run: spans recorded from here on carry the
// next run number.
func (t *tracer) beginRun() { t.run.Add(1) }

// reset forgets everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next.Store(0)
	t.dropped.Store(0)
	t.issueBlock = t.issueBlock[:0]
	for _, c := range []*atomic.Int64{&t.getCalls, &t.getNs, &t.predictCalls, &t.predictSamples, &t.predictNs} {
		c.Store(0)
	}
}

func (t *tracer) register(q *loadgen.Query, sut int32) {
	t.mu.Lock()
	if len(q.Samples) == 1 {
		idx := q.Samples[0].Index
		t.bySample[idx] = append(t.bySample[idx], sut)
	} else {
		t.bulk = append(t.bulk, sut)
	}
	t.mu.Unlock()
}

func (t *tracer) unregister(q *loadgen.Query, sut int32, issueBlocked int64) {
	remove := func(list []int32) []int32 {
		for i, v := range list {
			if v == sut {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	t.mu.Lock()
	if len(q.Samples) == 1 {
		idx := q.Samples[0].Index
		if rest := remove(t.bySample[idx]); len(rest) == 0 {
			delete(t.bySample, idx)
		} else {
			t.bySample[idx] = rest
		}
	} else {
		t.bulk = remove(t.bulk)
	}
	t.issueBlock = append(t.issueBlock, issueBlocked)
	t.mu.Unlock()
}

// parentOf finds the SUT span of a query in flight that holds the sample:
// the oldest single-sample query with that index, else a multi-sample query.
// -1 when nothing matches (the span is then a root of its own).
func (t *tracer) parentOf(sampleIndex int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if list := t.bySample[sampleIndex]; len(list) > 0 {
		return list[0]
	}
	if len(t.bulk) > 0 {
		return t.bulk[0]
	}
	return -1
}

// tracedSUT wraps the SUT handed to loadgen.StartTest. It issues an inner
// query of its own with a completion handler (the hook loadgen.Query documents
// for SUT-side intermediaries) to see when the query completes.
type tracedSUT struct {
	inner loadgen.SUT
	tr    *tracer
}

func (s *tracedSUT) Name() string { return s.inner.Name() }

func (s *tracedSUT) FlushQueries() { s.inner.FlushQueries() }

// Reopen forwards the LoadGen's new-series signal when the inner SUT takes
// one (backend.Remote does).
func (s *tracedSUT) Reopen() {
	if r, ok := s.inner.(interface{ Reopen() }); ok {
		r.Reopen()
	}
}

func (s *tracedSUT) IssueQuery(q *loadgen.Query) {
	t := s.tr
	entered := t.now()
	issued := int64(q.Issued.Sub(t.epoch))
	root := t.record(span{Kind: spanQuery, Parent: -1, Query: q.ID, N: int32(len(q.Samples)),
		Start: issued, Lateness: issued - int64(q.Scheduled)})
	sut := t.record(span{Kind: spanSUT, Parent: root, Query: q.ID, N: int32(len(q.Samples)), Start: entered})
	if sut >= 0 {
		t.register(q, sut)
	}
	var returned atomic.Int64
	inner := &loadgen.Query{ID: q.ID, Samples: q.Samples, Scheduled: q.Scheduled, Issued: q.Issued, Class: q.Class}
	inner.SetCompletionHandler(func(_ *loadgen.Query, responses []loadgen.Response) {
		done := t.now()
		if sut >= 0 {
			t.spans[sut].End = done
			// The handler can run before IssueQuery returns (an inline or
			// very fast SUT); the issue loop was then blocked until now.
			blocked := returned.Load()
			if blocked == 0 {
				blocked = done
			}
			t.unregister(q, sut, blocked-entered)
		}
		if root >= 0 {
			t.spans[root].End = done
		}
		q.Complete(responses)
	})
	s.inner.IssueQuery(inner)
	returned.Store(t.now())
}

// sampleStore is the one method backends and servers need from a data set.
type sampleStore interface {
	Get(index int) (*dataset.Sample, error)
}

// tracedStore wraps the sample store handed to the backend or server.
type tracedStore struct {
	inner sampleStore
	tr    *tracer
}

func (s *tracedStore) Get(index int) (*dataset.Sample, error) {
	start := s.tr.now()
	sample, err := s.inner.Get(index)
	end := s.tr.now()
	s.tr.getCalls.Add(1)
	s.tr.getNs.Add(end - start)
	s.tr.record(span{Kind: spanGet, Parent: s.tr.parentOf(index), N: 1, Start: start, End: end})
	return sample, err
}

// tracedEngine wraps the model.Engine handed to the backend or server.
type tracedEngine struct {
	inner model.Engine
	tr    *tracer
}

func (e *tracedEngine) Name() string       { return e.inner.Name() }
func (e *tracedEngine) Kind() dataset.Kind { return e.inner.Kind() }

// PreferredBatch forwards the engine's micro-batch so backends chunk and
// servers batch exactly as they do around the bare engine. Returning 0 for an
// engine that publishes none is what its absence means to both.
func (e *tracedEngine) PreferredBatch() int {
	if bs, ok := e.inner.(model.BatchSizer); ok {
		return bs.PreferredBatch()
	}
	return 0
}

func (e *tracedEngine) Predict(samples []*dataset.Sample, s *tensor.Scratch) ([]model.Output, error) {
	t := e.tr
	start := t.now()
	out, err := e.inner.Predict(samples, s)
	end := t.now()
	t.predictCalls.Add(1)
	t.predictSamples.Add(int64(len(samples)))
	t.predictNs.Add(end - start)
	// One span per distinct causing query, so every query's tree holds the
	// batch it rode in.
	var parents [8]int32
	seen := parents[:0]
	for _, sample := range samples {
		if sample == nil {
			continue
		}
		p := t.parentOf(sample.Index)
		dup := false
		for _, q := range seen {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, p)
		}
	}
	for i, p := range seen {
		t.record(span{Kind: spanPredict, Lead: i == 0, Parent: p, N: int32(len(samples)), Start: start, End: end})
	}
	return out, err
}

// finishRuns turns every root's lateness into its schedule lag — lateness
// minus the smallest lateness of its run, which is the run's start to within
// the least-late query's lag — moves the root's start back to the scheduled
// arrival, and copies query ids down to Get and Predict spans.
func finishRuns(spans []span) {
	least := map[int32]int64{}
	for _, s := range spans {
		if s.Kind != spanQuery {
			continue
		}
		if cur, ok := least[s.Run]; !ok || s.Lateness < cur {
			least[s.Run] = s.Lateness
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind == spanQuery {
			s.Lateness -= least[s.Run]
			s.Start -= s.Lateness
		} else if s.Parent >= 0 && int(s.Parent) < len(spans) {
			s.Query = spans[s.Parent].Query
		}
	}
}

// attribution is where the wall time of a set of query trees went.
type attribution struct {
	// wall[k] is the part of the roots' intervals attributed to kind k:
	// every instant of a root goes to exactly one span — the deepest one
	// covering it, the latest-started among overlapping siblings — so the
	// kinds sum to total.
	wall [numSpanKinds]int64
	// busy[k] is the summed self time of kind-k spans: duration minus the
	// part its children cover. Children running in parallel make busy
	// exceed wall.
	busy  [numSpanKinds]int64
	count [numSpanKinds]int64
	// total is the summed duration of the roots.
	total int64
	// perRoot[i][k] is root i's wall attribution, for per-query shares.
	perRoot [][numSpanKinds]int64
	roots   []int32
}

// attribute walks the trees under the given spans. Incomplete spans (End
// before Start: the query never completed) are skipped.
func attribute(spans []span) attribution {
	children := make(map[int32][]int32)
	var a attribution
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		} else if s.Kind == spanQuery {
			a.roots = append(a.roots, int32(i))
		}
	}
	for _, list := range children {
		sort.Slice(list, func(i, j int) bool { return spans[list[i]].Start < spans[list[j]].Start })
	}
	var walk func(i int32, lo, hi int64, wall *[numSpanKinds]int64)
	walk = func(i int32, lo, hi int64, wall *[numSpanKinds]int64) {
		kind := spans[i].Kind
		kids := children[i]
		// Boundaries of the children clipped to [lo, hi].
		cuts := []int64{lo, hi}
		for _, c := range kids {
			s, e := max(spans[c].Start, lo), min(spans[c].End, hi)
			if s < e {
				cuts = append(cuts, s, e)
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		first := 0 // children before first have ended by the current cut
		for c := 0; c+1 < len(cuts); c++ {
			a0, a1 := cuts[c], cuts[c+1]
			if a0 == a1 {
				continue
			}
			for first < len(kids) && spans[kids[first]].End <= a0 {
				first++
			}
			winner := int32(-1)
			for _, k := range kids[first:] {
				if spans[k].Start > a0 {
					break
				}
				if spans[k].End >= a1 {
					winner = k // sorted by start: the last match started latest
				}
			}
			if winner < 0 {
				wall[kind] += a1 - a0
			} else {
				walk(winner, a0, a1, wall)
			}
		}
	}
	selfOf := func(i int32) int64 {
		s := spans[i]
		var covered, reach int64 = 0, s.Start
		for _, c := range children[i] {
			cs, ce := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if cs < ce {
				covered += ce - cs
				reach = ce
			}
		}
		return s.dur() - covered
	}
	for i, s := range spans {
		if s.End < s.Start || (s.Kind == spanPredict && !s.Lead) {
			continue
		}
		a.count[s.Kind]++
		a.busy[s.Kind] += selfOf(int32(i))
	}
	a.perRoot = make([][numSpanKinds]int64, len(a.roots))
	for n, r := range a.roots {
		walk(r, spans[r].Start, spans[r].End, &a.perRoot[n])
		for k, v := range a.perRoot[n] {
			a.wall[k] += v
		}
		a.total += spans[r].dur()
	}
	return a
}
