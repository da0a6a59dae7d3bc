package serve

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"mlperf/internal/payload"
)

func TestBufClassSizing(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{4096, 6}, {1 << 24, bufPoolClasses - 1}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := bufClass(c.n); got != c.want {
			t.Errorf("bufClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAcquireBufferContract(t *testing.T) {
	for _, n := range []int{1, 64, 100, 4096, 1 << 20} {
		b := AcquireBuffer(n)
		if len(b.B) != 0 {
			t.Errorf("AcquireBuffer(%d) returned len %d, want 0", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Errorf("AcquireBuffer(%d) returned cap %d", n, cap(b.B))
		}
		b.Release()
	}
}

func TestBufferReleaseReclassifies(t *testing.T) {
	// Grow a small buffer well past its class before releasing. The pool's
	// invariant is that a class never hands out a buffer smaller than it
	// promises, so the released class must be fully covered by the capacity.
	b := AcquireBuffer(64)
	b.B = append(b.B, make([]byte, 10000)...)
	grown := cap(b.B)
	b.Release()
	if b.class < 0 {
		t.Fatalf("grown in-range buffer dropped (class %d)", b.class)
	}
	if promised := 1 << (int(b.class) + bufPoolMinBits); promised > grown {
		t.Errorf("class %d promises %d bytes but buffer caps at %d", b.class, promised, grown)
	}
}

func TestOversizeBufferBypassesPool(t *testing.T) {
	before := ReadBufferPoolStats()
	b := AcquireBuffer(maxFrameBytes + 1)
	if b.class != -1 {
		t.Errorf("oversize buffer got class %d", b.class)
	}
	if cap(b.B) < maxFrameBytes+1 {
		t.Errorf("oversize cap %d", cap(b.B))
	}
	b.Release() // must be a no-op, not a pool insert
	after := ReadBufferPoolStats()
	if after.Oversized != before.Oversized+1 {
		t.Errorf("oversized counter %d -> %d", before.Oversized, after.Oversized)
	}
	if after.Puts != before.Puts {
		t.Error("oversize release was filed into the pool")
	}
}

func TestBufferPoolStatsCount(t *testing.T) {
	before := ReadBufferPoolStats()
	b := AcquireBuffer(256)
	b.Release()
	after := ReadBufferPoolStats()
	if after.Gets != before.Gets+1 {
		t.Errorf("gets %d -> %d", before.Gets, after.Gets)
	}
	if after.Puts != before.Puts+1 {
		t.Errorf("puts %d -> %d", before.Puts, after.Puts)
	}
}

// The steady-state swarm wire path — request framing on the client, payload
// encode + response framing on the server, pooled frame read + in-place
// decode back on the client — must allocate nothing once the pools are warm.
// This is the allocation-regression gate CI runs.
func TestWirePathZeroAlloc(t *testing.T) {
	req := PredictRequest{ID: 1, SampleIndex: 3, Deadline: time.Time{}}

	// Pre-encode one response frame to replay through the client reader.
	respFrame := predictResponseBytes(1, StatusOK, nil, payload.AppendClass(nil, 7))
	stream := bytes.NewReader(nil)
	reader := bufio.NewReader(stream)

	// Warm the pools.
	_ = WritePredictRequest(io.Discard, req)

	if n := testing.AllocsPerRun(200, func() {
		if err := WritePredictRequest(io.Discard, req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("client request framing allocates %v/op", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		// The server's finish() shape: the response frame opened and the
		// payload encoded behind it in one pooled buffer.
		buf := AcquireBuffer(frameHeaderBytes + 9 + 64)
		b := payload.AppendClass(appendPredictResponseFrame(buf.B, 42, StatusOK, nil), 7)
		buf.B = endFrame(b, 0)
		buf.Release()
	}); n != 0 {
		t.Errorf("server response framing allocates %v/op", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		stream.Reset(respFrame)
		reader.Reset(stream)
		frame, err := ReadClientFrame(reader)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := payload.DecodeClass(frame.Predict.Data); err != nil {
			t.Fatal(err)
		}
		frame.Release()
	}); n != 0 {
		t.Errorf("client response read+decode allocates %v/op", n)
	}
}
