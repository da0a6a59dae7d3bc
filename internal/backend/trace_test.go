package backend

import (
	"testing"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/trace"
)

// tracedSweep runs one accuracy sweep through a loopback pair built with the
// given client/server tracers (either may be nil) and returns both tracers'
// records afterwards.
func tracedSweep(t *testing.T, clientTr, serverTr *trace.Tracer) (client, server []trace.Record) {
	t.Helper()
	engine, qsl := buildMobileNetStack(t)
	_, remote := startLoopback(t,
		serve.Config{Engine: engine, Store: qsl, Workers: 2, BatchWait: time.Millisecond, Tracer: serverTr},
		RemoteConfig{Conns: 2, Tracer: clientTr})
	accuracyByIndex(t, remote, qsl)
	remote.Wait()
	if errs := remote.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	client = clientTr.Records()
	// The server files a request's record once its reply is on the wire, so
	// the client can hold the last answers before the server's ring holds
	// their records: let the ring catch up before reading it.
	for deadline := time.Now().Add(5 * time.Second); serverTr != nil && len(serverTr.Records()) < len(client) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return client, serverTr.Records()
}

// TestTracedLoopbackRoundTrip: with sampling on both sides at 1/1, every
// request produces a client record carrying the folded server span block and
// a matching server record, with stage sums bounded by the end-to-end span.
func TestTracedLoopbackRoundTrip(t *testing.T) {
	clientTr := trace.New(trace.Config{SampleEvery: 1})
	serverTr := trace.New(trace.Config{SampleEvery: 1})
	client, server := tracedSweep(t, clientTr, serverTr)

	if len(client) == 0 || len(server) == 0 {
		t.Fatalf("empty rings: client %d, server %d records", len(client), len(server))
	}

	serverByID := make(map[uint64]trace.Record, len(server))
	for _, rec := range server {
		if rec.Origin != trace.OriginServer {
			t.Fatalf("server ring holds a %v-origin record", rec.Origin)
		}
		if rec.TraceID == 0 {
			// Tail-only capture of an untraced request can't happen at 1/1
			// sampling: every request carries a trace id.
			t.Fatal("server record without a trace id at 1/1 sampling")
		}
		if rec.Stages[trace.StageReply] <= 0 {
			t.Fatalf("server record %d missing reply span", rec.TraceID)
		}
		serverByID[rec.TraceID] = rec
	}

	for _, rec := range client {
		if rec.Origin != trace.OriginClient || rec.TraceID == 0 {
			t.Fatalf("client ring holds %+v", rec)
		}
		if !rec.HasServer || rec.ServerStart <= 0 {
			t.Fatalf("trace %d: client record lacks the folded server block", rec.TraceID)
		}
		if sum := rec.ClientNanos(); sum > rec.End2End {
			t.Errorf("trace %d: client stages sum to %dns > e2e %dns", rec.TraceID, sum, rec.End2End)
		}
		if srv := rec.ServerNanos(); srv > rec.End2End {
			t.Errorf("trace %d: folded server stages %dns > e2e %dns", rec.TraceID, srv, rec.End2End)
		}
		for _, st := range []trace.Stage{trace.StageIssue, trace.StageWrite, trace.StageAwait, trace.StageDecode} {
			if rec.Stages[st] <= 0 {
				t.Errorf("trace %d: client stage %v empty", rec.TraceID, st)
			}
		}
		srv, ok := serverByID[rec.TraceID]
		if !ok {
			t.Errorf("trace %d: no matching server record", rec.TraceID)
			continue
		}
		// The folded block and the server's own record come from the same
		// measurements (reply excepted — it's measured after the block is
		// sent), so the shared stages must agree exactly.
		for _, st := range []trace.Stage{trace.StageAdmit, trace.StageQueue, trace.StageAssembly, trace.StageService, trace.StageEncode} {
			if rec.Stages[st] != srv.Stages[st] {
				t.Errorf("trace %d stage %v: folded %dns != server %dns", rec.TraceID, st, rec.Stages[st], srv.Stages[st])
			}
		}
	}
}

// TestTracedClientUntracedServer: a traced client against a server with no
// tracer degrades gracefully — the server answers with the trace flag
// clear, nothing drops, and client records simply lack the server block.
func TestTracedClientUntracedServer(t *testing.T) {
	clientTr := trace.New(trace.Config{SampleEvery: 1})
	client, server := tracedSweep(t, clientTr, nil)
	if len(server) != 0 {
		t.Fatalf("nil server tracer produced %d records", len(server))
	}
	if len(client) == 0 {
		t.Fatal("client ring empty")
	}
	for _, rec := range client {
		if rec.HasServer {
			t.Fatalf("trace %d: server block from an untraced server", rec.TraceID)
		}
		if rec.TraceID == 0 || rec.End2End <= 0 {
			t.Fatalf("malformed client record %+v", rec)
		}
	}
}

// TestUntracedClientTracedServer: an untraced client never sets the trace flag,
// so a traced server sees only untraced requests; its ring holds at most
// tail-capture records (trace id 0) and the sweep still completes cleanly.
func TestUntracedClientTracedServer(t *testing.T) {
	serverTr := trace.New(trace.Config{SampleEvery: 1})
	client, server := tracedSweep(t, nil, serverTr)
	if len(client) != 0 {
		t.Fatalf("nil client tracer produced %d records", len(client))
	}
	for _, rec := range server {
		if rec.TraceID != 0 {
			t.Fatalf("untraced client yielded a traced server record %d", rec.TraceID)
		}
		if !rec.Tail {
			t.Fatalf("non-tail record %+v on the untraced path", rec)
		}
	}
}
