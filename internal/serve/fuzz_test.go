package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlperf/internal/metrics"
	"mlperf/internal/payload"
	"mlperf/internal/trace"
)

// frameBytes builds one raw frame, bypassing the writers so malformed flags,
// lengths and bodies can be fabricated.
func frameBytes(msgType, flags byte, body []byte) []byte {
	return endFrame(append(beginFrame(nil, msgType, flags), body...), 0)
}

// predictResponseBytes is one complete predict response frame as the server
// emits it.
func predictResponseBytes(id uint64, status Status, spans *trace.WireSpans, data []byte) []byte {
	return endFrame(append(appendPredictResponseFrame(nil, id, status, spans), data...), 0)
}

// decodeServerStream is the fuzz target's server half: serveConn's own
// parsing — readFrameBuf, then decodeRequest — until the stream errors out.
// Every frame the decoder accepts must be in canonical form: writing the
// decoded request back out reproduces it byte for byte.
func decodeServerStream(t *testing.T, data []byte) {
	r := bufio.NewReader(bytes.NewReader(data))
	for {
		msgType, flags, buf, err := readFrameBuf(r)
		if err != nil {
			return
		}
		req, err := decodeRequest(msgType, flags, buf.B)
		if err != nil {
			buf.Release()
			return
		}
		var out bytes.Buffer
		if err := writeRequest(&out, req); err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		if want := frameBytes(msgType, flags, buf.B); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("frame %x decoded to %+v, which re-encodes as %x", want, req, out.Bytes())
		}
		buf.Release()
	}
}

// decodeClientStream is the fuzz target's client half: the same bytes read as
// server → client frames through backend.Remote's entry point, with predict
// payloads pushed on through the payload decoders the way accuracy mode does.
func decodeClientStream(data []byte) {
	r := bufio.NewReader(bytes.NewReader(data))
	for {
		frame, err := ReadClientFrame(r)
		if err != nil {
			return
		}
		if frame.Type == MsgPredict {
			_, _ = payload.DecodeClass(frame.Predict.Data)
			_, _ = payload.DecodeBoxes(frame.Predict.Data)
			_, _ = payload.DecodeTokens(frame.Predict.Data)
		}
		frame.Release()
	}
}

// malformedRequests are request frames the server must drop the connection
// on: never answer, never panic.
func malformedRequests() map[string][]byte {
	predict := make([]byte, predictBodyBytes)
	id := make([]byte, 8)
	return map[string][]byte{
		"unknown type":                     frameBytes(99, 0, []byte{1, 2, 3}),
		"type zero":                        frameBytes(0, 0, nil),
		"unknown flag bit on predict":      frameBytes(MsgPredict, 1<<2, predict),
		"high flag bit on flush":           frameBytes(MsgFlush, 1<<7, nil),
		"trace flag on flush":              frameBytes(MsgFlush, flagTrace, id),
		"trace flag on metrics":            frameBytes(MsgMetrics, flagTrace, append(id, id...)),
		"model flag on probe":              frameBytes(MsgProbe, flagModel, append([]byte{1, 'm'}, id...)),
		"model flag, empty body":           frameBytes(MsgFlush, flagModel, nil),
		"model id longer than its body":    frameBytes(MsgPredict, flagModel, []byte{255, 'a', 'b'}),
		"empty model id block":             frameBytes(MsgPredict, flagModel, append([]byte{0}, predict...)),
		"trace flag, short body":           frameBytes(MsgPredict, flagTrace, []byte{0, 0, 0, 1}),
		"zero trace id with trace flag":    frameBytes(MsgPredict, flagTrace, append(make([]byte, 8), predict...)),
		"zero trace id behind a model id":  frameBytes(MsgPredict, flagModel|flagTrace, append(append([]byte{1, 'm'}, make([]byte, 8)...), predict...)),
		"short predict body":               frameBytes(MsgPredict, 0, predict[:19]),
		"trailing byte after predict body": frameBytes(MsgPredict, 0, append(predict, 0)),
		"trailing byte after model flush":  frameBytes(MsgFlush, flagModel, []byte{1, 'm', 0}),
		"flush with a body":                frameBytes(MsgReopen, 0, []byte{0}),
		"short metrics body":               frameBytes(MsgMetrics, 0, id[:7]),
		"trailing byte after metrics id":   frameBytes(MsgMetrics, 0, append(id, 0)),
		"empty probe body":                 frameBytes(MsgProbe, 0, nil),
		"trailing bytes after probe id":    frameBytes(MsgProbe, 0, append(id, 1, 2)),
	}
}

// FuzzDecodeFrame throws arbitrary byte streams at both frame-decoding paths:
// truncated frames, oversized length prefixes, unknown types and flags and
// model-id edge cases must all error out cleanly — never panic, hang or
// allocate proportionally to a lying length prefix.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed request frames, as the writers emit them: every type, with
	// and without each optional block.
	var buf bytes.Buffer
	for _, req := range []PredictRequest{
		{ID: 7, SampleIndex: 3, Deadline: time.Unix(0, 99)},
		{ID: 9, SampleIndex: 1, Model: "resnet"},
		{ID: 10, SampleIndex: 2, TraceID: 77},
		{ID: 11, SampleIndex: 2, Model: "resnet", TraceID: 77},
	} {
		buf.Reset()
		_ = WritePredictRequest(&buf, req)
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	buf.Reset()
	_ = WriteControl(&buf, MsgFlush, "")
	_ = WriteControl(&buf, MsgReopen, "gnmt")
	_ = WriteMetricsRequest(&buf, 1, "")
	_ = WriteMetricsRequest(&buf, 2, "mobilenet")
	_ = WriteProbeRequest(&buf, 3)
	_ = WriteControl(&buf, MsgFlush, strings.Repeat("m", maxModelIDLen))
	f.Add(append([]byte(nil), buf.Bytes()...))
	for _, frame := range malformedRequests() {
		f.Add(frame)
	}

	// Server → client frames: predict responses with and without a span
	// block, a truncated span block, flags no response may carry.
	spans := &trace.WireSpans{RecvUnixNano: 5, Admit: 1, Queue: 2, Assembly: 3, Service: 4, Encode: 5}
	f.Add(predictResponseBytes(12, StatusOK, spans, []byte("payload")))
	f.Add(predictResponseBytes(13, StatusRejected, nil, nil))
	f.Add(predictResponseBytes(14, StatusOK, spans, nil)[:frameHeaderBytes+20])
	f.Add(frameBytes(MsgPredict, flagTrace, make([]byte, spanBlockBytes+8)))
	f.Add(frameBytes(MsgPredict, flagModel, append([]byte{1, 'm'}, make([]byte, 9)...)))
	f.Add(frameBytes(MsgMetrics, flagTrace, make([]byte, spanBlockBytes+8)))
	f.Add(appendIDFrame(nil, MsgMetrics, 5, []byte(`{"completed":1}`)...))
	// Payloads inside predict responses: well-formed class/boxes/tokens
	// bytes, a truncated box record, token and box counts lying far past the
	// body, a bare version byte, and an unknown payload kind.
	for i, data := range [][]byte{
		payload.AppendClass(nil, 7),
		payload.AppendTokens(nil, []int{4, 8, 15}),
		payload.AppendBoxes(nil, []metrics.Box{{X1: 1, Y1: 2, X2: 3, Y2: 4, Class: 5, Score: 0.5}}),
		{payload.BinaryVersion, 0x02, 0x01, 0x00},
		{payload.BinaryVersion, 0x03, 0xff, 0xff, 0xff, 0xff, 0x0f},
		{payload.BinaryVersion, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f},
		{payload.BinaryVersion},
		{payload.BinaryVersion, 0x7f, 0x00},
	} {
		f.Add(predictResponseBytes(uint64(43+i), StatusOK, nil, data))
	}
	// Probe responses: ready and draining verdicts, a missing readiness byte,
	// an oversized body, and an unknown readiness value.
	f.Add(appendIDFrame(nil, MsgProbe, 6, ProbeReady))
	f.Add(appendIDFrame(nil, MsgProbe, 7, ProbeDraining))
	f.Add(appendIDFrame(nil, MsgProbe, 8))
	f.Add(appendIDFrame(nil, MsgProbe, 9, 1, 2))
	f.Add(appendIDFrame(nil, MsgProbe, 10, 0xfe))
	// Broken framing: truncated header, truncated body, oversized and lying
	// length prefixes.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 20, MsgPredict, 0, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, MsgPredict, 0})
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, MsgPredict, flagModel, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeServerStream(t, data)
		decodeClientStream(data)
	})
}

// TestReadFrameDoesNotOverAllocate pins the incremental body read: a header
// claiming a maximal 16 MiB frame on a stream that carries almost nothing
// must not allocate anywhere near the claimed size.
func TestReadFrameDoesNotOverAllocate(t *testing.T) {
	lying := frameBytes(MsgPredict, 0, nil)
	binary.BigEndian.PutUint32(lying[:4], maxFrameBytes) // claims 16 MiB, carries 0

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		if _, _, _, err := readFrameBuf(bufio.NewReader(bytes.NewReader(lying))); err == nil {
			t.Fatal("truncated 16 MiB frame decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	// 8 failed reads at one 64 KiB chunk each stay well under 2 MiB even
	// with test-harness noise; trusting the prefix would allocate 128 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Errorf("8 truncated reads allocated %d bytes — length prefix is trusted too much", grew)
	}
}

// TestModelIDEdgeCases pins the request decoder's boundaries: the model-id
// length limits, and every malformed frame — bad model-id block, unknown type
// or flag bit, zero trace id, wrong-length fixed body, trailing bytes — is
// refused by decodeRequest and makes a live server drop the connection
// without answering.
func TestModelIDEdgeCases(t *testing.T) {
	if err := WritePredictRequest(io.Discard, PredictRequest{Model: strings.Repeat("x", 256)}); err == nil {
		t.Error("256-byte model id written without error")
	}
	var buf bytes.Buffer
	longID := strings.Repeat("x", maxModelIDLen)
	if err := WriteControl(&buf, MsgFlush, longID); err != nil {
		t.Fatal(err)
	}
	msgType, flags, body, err := readFrameBuf(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if req, err := decodeRequest(msgType, flags, body.B); err != nil || req.Type != MsgFlush || req.Model != longID {
		t.Errorf("255-byte model id round trip: %d-byte id, err %v", len(req.Model), err)
	}

	s := newTestServer(t, Config{})
	for name, frame := range malformedRequests() {
		if _, err := decodeRequest(frame[4], frame[5], frame[frameHeaderBytes:]); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		c, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if answer, err := io.ReadAll(c); err != nil || len(answer) != 0 {
			t.Errorf("%s: server answered %x (err %v), want a dropped connection", name, answer, err)
		}
		c.Close()
	}
	// The server outlives its malformed peers.
	tc := dialTest(t, s.Addr())
	tc.predict(1, 5, time.Time{})
	if resp := tc.read(1)[1]; resp.Status != StatusOK {
		t.Errorf("request after the malformed peers: %v, want ok", resp.Status)
	}
}
