package serve

import (
	"bytes"
	"encoding/hex"
	"io"
	"strings"
	"testing"
	"time"

	"mlperf/internal/trace"
)

// TestGoldenFrameBytes pins the exact bytes of one frame of each type in each
// flag combination it may carry, both directions. Client and server ship from
// one commit, so these bytes are free to change — but only on purpose, and
// only here.
func TestGoldenFrameBytes(t *testing.T) {
	const (
		id      = 0x1122334455667788
		index   = 0x0a0b0c0d
		traceID = 0xa1a2a3a4a5a6a7a8
		// A model id block for "gnmt": length byte, then the id.
		gnmt = "04 676e6d74"
		// The fixed predict request body: id, index, deadline.
		predict = "1122334455667788 0a0b0c0d 0102030405060708"
	)
	deadline := time.Unix(0, 0x0102030405060708)
	request := func(write func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	predictRequest := func(req PredictRequest) []byte {
		return request(func(w io.Writer) error { return WritePredictRequest(w, req) })
	}
	spans := &trace.WireSpans{RecvUnixNano: 0x10, Admit: 1, Queue: 2, Assembly: 3, Service: 4, Encode: 5}
	classSeven := []byte{0x01, 0x01, 0x0e} // payload.AppendClass(nil, 7)

	golden := []struct {
		name string
		got  []byte
		hex  string
	}{
		// Client → server. Header: u32 body length, type, flags.
		{"predict", predictRequest(PredictRequest{ID: id, SampleIndex: index, Deadline: deadline}),
			"00000014 01 00" + predict},
		{"predict, model", predictRequest(PredictRequest{ID: id, SampleIndex: index, Deadline: deadline, Model: "gnmt"}),
			"00000019 01 01" + gnmt + predict},
		{"predict, trace, no deadline", predictRequest(PredictRequest{ID: id, SampleIndex: index, TraceID: traceID}),
			"0000001c 01 02 a1a2a3a4a5a6a7a8 1122334455667788 0a0b0c0d 0000000000000000"},
		{"predict, model, trace", predictRequest(PredictRequest{ID: id, SampleIndex: index, Deadline: deadline, Model: "gnmt", TraceID: traceID}),
			"00000021 01 03" + gnmt + "a1a2a3a4a5a6a7a8" + predict},
		{"flush", request(func(w io.Writer) error { return WriteControl(w, MsgFlush, "") }),
			"00000000 02 00"},
		{"flush, model", request(func(w io.Writer) error { return WriteControl(w, MsgFlush, "gnmt") }),
			"00000005 02 01" + gnmt},
		{"reopen", request(func(w io.Writer) error { return WriteControl(w, MsgReopen, "") }),
			"00000000 03 00"},
		{"reopen, model", request(func(w io.Writer) error { return WriteControl(w, MsgReopen, "gnmt") }),
			"00000005 03 01" + gnmt},
		{"metrics", request(func(w io.Writer) error { return WriteMetricsRequest(w, 0x0102, "") }),
			"00000008 04 00 0000000000000102"},
		{"metrics, model", request(func(w io.Writer) error { return WriteMetricsRequest(w, 0x0102, "gnmt") }),
			"0000000d 04 01" + gnmt + "0000000000000102"},
		{"probe", request(func(w io.Writer) error { return WriteProbeRequest(w, 0x0304) }),
			"00000008 05 00 0000000000000304"},

		// Server → client.
		{"predict response", predictResponseBytes(id, StatusOK, nil, classSeven),
			"0000000c 01 00 1122334455667788 00 01010e"},
		{"predict response, span block", predictResponseBytes(id, StatusOK, spans, classSeven),
			"0000003c 01 02" +
				"0000000000000010" + // receipt UnixNano
				"0000000000000001 0000000000000002 0000000000000003" + // admit, queue, assembly
				"0000000000000004 0000000000000005" + // service, encode
				"1122334455667788 00 01010e"},
		{"predict response, rejected", predictResponseBytes(id, StatusRejected, nil, nil),
			"00000009 01 00 1122334455667788 01"},
		{"metrics response", appendIDFrame(nil, MsgMetrics, 0x0102, []byte("{}")...),
			"0000000a 04 00 0000000000000102 7b7d"},
		{"probe response, ready", appendIDFrame(nil, MsgProbe, 0x0304, ProbeReady),
			"00000009 05 00 0000000000000304 01"},
		{"probe response, draining", appendIDFrame(nil, MsgProbe, 0x0304, ProbeDraining),
			"00000009 05 00 0000000000000304 00"},
	}
	for _, g := range golden {
		want, err := hex.DecodeString(strings.ReplaceAll(g.hex, " ", ""))
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s = %x, want %x", g.name, g.got, want)
		}
	}
}
