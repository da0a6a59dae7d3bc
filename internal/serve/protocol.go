package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mlperf/internal/trace"
)

// Wire protocol. Every message — both directions — is one frame:
//
//	[u32 body length (big endian)] [u8 message type] [u8 flags]
//	[u8 n][n-byte model id]                    when flagModel is set
//	[u64 trace id] / [48-byte span block]      when flagTrace is set
//	[fixed body]
//
// The body length counts everything after the six header bytes. Fixed bodies,
// client → server (all but MsgProbe may carry a model id):
//
//	MsgPredict: u64 request id, u32 sample index, i64 absolute deadline
//	            (UnixNano, 0 = none); a head-sampled request also carries a
//	            non-zero trace id
//	MsgFlush:   empty — end of the query series: the batcher flushes and
//	            switches to pass-through (late requests dispatch at once)
//	MsgReopen:  empty — re-arm batching for a new series
//	MsgMetrics: u64 request id — ask for a metrics snapshot
//	MsgProbe:   u64 probe id — health check
//
// An absent model id addresses the server's default model for a predict (the
// single hosted engine, when unambiguous), every hosted model for a flush or
// reopen, and the merged snapshot across models for metrics. A model id block
// is never empty: absence is the only encoding of "no model".
//
// Server → client (demultiplexed by request id, so never a model id):
//
//	MsgPredict: u64 request id, u8 status, payload bytes (the sample's
//	            encoded model.Output when status is StatusOK, empty
//	            otherwise). With flagTrace a span block precedes the body:
//	            i64 receipt UnixNano, then i64 nanoseconds of admit, queue
//	            wait, batch assembly, service and encode. A server without a
//	            tracer answers a traced request with the flag clear.
//	MsgMetrics: u64 request id, JSON-encoded Snapshot
//	MsgProbe:   u64 probe id, u8 readiness (ProbeReady or ProbeDraining)
//
// Both ends drop the connection on an unknown type, a flag bit the type does
// not allow, a fixed body of the wrong length or trailing bytes.
//
// The payload bytes are exactly what model.Output.Encode produces, so a
// response relayed by backend.Remote is bit-identical to what backend.Native
// hands the LoadGen for the same sample. Sample *indexes*, not tensors, cross
// the wire: like the reference LoadGen's QSL contract, the data set is loaded
// on the serving side before the timed run.
const (
	MsgPredict byte = 1 // inference for one sample, and its answer
	MsgFlush   byte = 2 // end of the query series
	MsgReopen  byte = 3 // re-arm batching for a new series
	MsgMetrics byte = 4 // a metrics snapshot request, and the snapshot
	MsgProbe   byte = 5 // health check run on a re-dialed connection before it is routed to
)

// Frame flag bits: which optional blocks follow the header.
const (
	flagModel byte = 1 << 0 // a model id block (requests only)
	flagTrace byte = 1 << 1 // a trace id (predict request) or span block (predict response)
)

const (
	frameHeaderBytes = 6  // [u32 length][u8 type][u8 flags]
	predictBodyBytes = 20 // id, index, deadline
	spanBlockBytes   = 48 // receipt timestamp plus five stage durations
	// maxModelIDLen bounds a wire model id (its length is a u8).
	maxModelIDLen = 255
	// maxFrameBytes bounds a single frame so a corrupt length prefix cannot
	// make a reader allocate unboundedly. Encoded outputs are small (a class
	// id, a box list, a token list); 16 MiB is far above anything legitimate.
	maxFrameBytes = 16 << 20
	// readBodyChunk caps what readFrameBuf acquires before any body bytes
	// have actually arrived, so a lying length prefix on a truncated stream
	// costs at most one chunk of memory rather than the claimed frame size.
	readBodyChunk = 64 << 10
)

// Probe readiness verdicts carried in a MsgProbe response.
const (
	ProbeDraining byte = 0 // retiring: still answers what it admitted, must not be readmitted
	ProbeReady    byte = 1 // admitting work
)

// Status reports how the server disposed of a predict request.
type Status byte

const (
	StatusOK       Status = iota // inference ran; the payload is the encoded output
	StatusRejected               // admission control turned the request away (queue full)
	StatusExpired                // the request's deadline passed before service began
	StatusError                  // the sample failed to load, infer or encode
)

// String returns the status's wire-log name.
func (s Status) String() string {
	if names := [...]string{"ok", "rejected", "expired", "error"}; int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// PredictRequest is the client-side form of a MsgPredict request frame.
type PredictRequest struct {
	// ID is echoed verbatim in the response so the client can demultiplex
	// concurrent requests on one connection.
	ID uint64
	// SampleIndex addresses the sample in the server's store.
	SampleIndex int
	// Deadline, when non-zero, is the absolute time (on the clock a loopback
	// client and server share) after which the server must not begin service;
	// it answers StatusExpired instead.
	Deadline time.Time
	// Model addresses one of the server's named engines; empty targets the
	// server's default model.
	Model string
	// TraceID, when non-zero, marks the request head-sampled for tracing.
	TraceID uint64
}

// PredictResponse is the client-side form of a MsgPredict response frame.
type PredictResponse struct {
	ID     uint64
	Status Status
	// Data is the encoded model.Output for StatusOK, empty otherwise.
	Data []byte
	// Spans holds the server-measured span block of a traced response, nil
	// when the frame carried none.
	Spans *trace.WireSpans
}

// clientRequest is one client → server frame in decoded form. Predict frames
// use every field; metrics and probe frames ID (metrics also Model); flush
// and reopen Model only.
type clientRequest struct {
	Type byte
	PredictRequest
}

// beginFrame appends a frame header to dst with the body length left open;
// the body is appended after it and endFrame patches the length in. Header
// and body share one buffer, so a frame reaches the socket as one Write.
func beginFrame(dst []byte, msgType, flags byte) []byte {
	return append(dst, 0, 0, 0, 0, msgType, flags)
}

// endFrame patches the body length of the frame that starts at offset start
// in buf (start is len(dst) at the matching beginFrame call).
func endFrame(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start:start+4], uint32(len(buf)-start-frameHeaderBytes))
	return buf
}

// readFrameBuf reads one frame into a Buffer from the size-classed pool,
// which the caller must Release once every sub-slice of it (payload data,
// metrics JSON) has been consumed. It is the one frame reader on both ends
// of the wire and allocates nothing once the pools are warm. A body larger
// than readBodyChunk is sized in full only after its first chunk has arrived.
func readFrameBuf(r *bufio.Reader) (msgType, flags byte, buf *Buffer, err error) {
	// Peek the header out of the bufio buffer rather than io.ReadFull into a
	// local array: the interface-typed ReadFull call makes a local header
	// escape, which would put one heap allocation on every frame read.
	header, err := r.Peek(frameHeaderBytes)
	if err != nil {
		if err == io.EOF && len(header) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(header[:4]))
	msgType, flags = header[4], header[5]
	_, _ = r.Discard(frameHeaderBytes) // cannot fail: Peek buffered these bytes
	if n > maxFrameBytes {
		return 0, 0, nil, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	first := min(n, readBodyChunk)
	buf = AcquireBuffer(first)
	buf.B = buf.B[:first]
	if _, err := io.ReadFull(r, buf.B); err != nil {
		buf.Release()
		return 0, 0, nil, err
	}
	if n > first {
		probe := buf
		buf = AcquireBuffer(n)
		buf.B = buf.B[:n]
		copy(buf.B, probe.B)
		probe.Release()
		if _, err := io.ReadFull(r, buf.B[first:]); err != nil {
			buf.Release()
			return 0, 0, nil, err
		}
	}
	return msgType, flags, buf, nil
}

// writeRequest encodes one client → server frame in a pooled buffer and
// hands it to the writer as one contiguous Write; the send path's steady
// state allocates nothing here. The flags follow from the request: a model
// id block when Model is set, a trace id when TraceID is non-zero.
func writeRequest(w io.Writer, req clientRequest) error {
	if len(req.Model) > maxModelIDLen {
		return fmt.Errorf("serve: model id %q is %d bytes, limit %d", req.Model, len(req.Model), maxModelIDLen)
	}
	buf := AcquireBuffer(frameHeaderBytes + 1 + len(req.Model) + 8 + predictBodyBytes)
	defer buf.Release()
	b := beginFrame(buf.B, req.Type, 0)
	if req.Model != "" {
		b[frameHeaderBytes-1] |= flagModel
		b = append(append(b, byte(len(req.Model))), req.Model...)
	}
	if req.TraceID != 0 {
		b[frameHeaderBytes-1] |= flagTrace
		b = binary.BigEndian.AppendUint64(b, req.TraceID)
	}
	if req.Type == MsgPredict || req.Type == MsgMetrics || req.Type == MsgProbe {
		b = binary.BigEndian.AppendUint64(b, req.ID)
	}
	if req.Type == MsgPredict {
		b = binary.BigEndian.AppendUint32(b, uint32(req.SampleIndex))
		var deadline int64
		if !req.Deadline.IsZero() {
			deadline = req.Deadline.UnixNano()
		}
		b = binary.BigEndian.AppendUint64(b, uint64(deadline))
	}
	buf.B = endFrame(b, 0)
	_, err := w.Write(buf.B)
	return err
}

// WritePredictRequest writes one predict request frame.
func WritePredictRequest(w io.Writer, req PredictRequest) error {
	return writeRequest(w, clientRequest{Type: MsgPredict, PredictRequest: req})
}

// WriteControl writes a control frame (MsgFlush or MsgReopen) addressed to
// one named model, or — with an empty model — to every model the server hosts.
func WriteControl(w io.Writer, msgType byte, model string) error {
	if msgType != MsgFlush && msgType != MsgReopen {
		return fmt.Errorf("serve: message type %d is not a control frame", msgType)
	}
	return writeRequest(w, clientRequest{Type: msgType, PredictRequest: PredictRequest{Model: model}})
}

// WriteMetricsRequest writes a metrics-snapshot request for one named model,
// or — with an empty model — for the merged snapshot across hosted models.
func WriteMetricsRequest(w io.Writer, id uint64, model string) error {
	return writeRequest(w, clientRequest{Type: MsgMetrics, PredictRequest: PredictRequest{ID: id, Model: model}})
}

// WriteProbeRequest writes a health-probe request frame.
func WriteProbeRequest(w io.Writer, id uint64) error {
	return writeRequest(w, clientRequest{Type: MsgProbe, PredictRequest: PredictRequest{ID: id}})
}

// decodeRequest parses one client → server frame, as split by readFrameBuf.
// It is the server's only request parser: any error means the peer is
// malformed and the connection is dropped.
func decodeRequest(msgType, flags byte, body []byte) (clientRequest, error) {
	req := clientRequest{Type: msgType}
	allowed, fixed := flagModel, 0
	switch msgType {
	case MsgPredict:
		allowed, fixed = flagModel|flagTrace, predictBodyBytes
	case MsgFlush, MsgReopen:
	case MsgMetrics:
		fixed = 8
	case MsgProbe:
		allowed, fixed = 0, 8
	default:
		return req, fmt.Errorf("serve: unknown request frame type %d", msgType)
	}
	if flags&^allowed != 0 {
		return req, fmt.Errorf("serve: frame type %d carries flags %#02x, allowed %#02x", msgType, flags, allowed)
	}
	if flags&flagModel != 0 {
		if len(body) < 1 || body[0] == 0 || len(body) < 1+int(body[0]) {
			return req, fmt.Errorf("serve: malformed model id block in a %d-byte body", len(body))
		}
		n := int(body[0])
		req.Model = string(body[1 : 1+n])
		body = body[1+n:]
	}
	if flags&flagTrace != 0 {
		if len(body) < 8 || binary.BigEndian.Uint64(body) == 0 {
			return req, fmt.Errorf("serve: traced predict frame carries a missing or zero trace id")
		}
		req.TraceID, body = binary.BigEndian.Uint64(body), body[8:]
	}
	if len(body) != fixed {
		return req, fmt.Errorf("serve: frame type %d fixed body is %d bytes, want %d", msgType, len(body), fixed)
	}
	if fixed >= 8 {
		req.ID = binary.BigEndian.Uint64(body)
	}
	if msgType == MsgPredict {
		req.SampleIndex = int(binary.BigEndian.Uint32(body[8:12]))
		if nanos := int64(binary.BigEndian.Uint64(body[12:20])); nanos != 0 {
			req.Deadline = time.Unix(0, nanos)
		}
	}
	return req, nil
}

// appendPredictResponseFrame opens a MsgPredict response frame on dst:
// header, the span block when spans is non-nil, request id and status. The
// caller appends the payload bytes (none for a non-OK status) and closes the
// frame with endFrame at the offset dst had on entry.
func appendPredictResponseFrame(dst []byte, id uint64, status Status, spans *trace.WireSpans) []byte {
	if spans == nil {
		dst = beginFrame(dst, MsgPredict, 0)
	} else {
		dst = beginFrame(dst, MsgPredict, flagTrace)
		for _, v := range [6]int64{spans.RecvUnixNano, spans.Admit, spans.Queue, spans.Assembly, spans.Service, spans.Encode} {
			dst = binary.BigEndian.AppendUint64(dst, uint64(v))
		}
	}
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, byte(status))
}

// appendIDFrame appends a complete response frame whose body is a u64 id
// plus data: a metrics snapshot's JSON, or a probe's one readiness byte.
func appendIDFrame(dst []byte, msgType byte, id uint64, data ...byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, msgType, 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return endFrame(append(dst, data...), start)
}

// ClientFrame is one server → client message, as read by backend.Remote.
type ClientFrame struct {
	// Type is MsgPredict, MsgMetrics or MsgProbe; only the fields named
	// after it are populated.
	Type        byte
	Predict     PredictResponse
	MetricsID   uint64
	MetricsJSON []byte
	ProbeID     uint64
	ProbeReady  bool
	buf         *Buffer // backs Predict.Data and MetricsJSON; Release returns it
}

// Release returns the frame's pooled body to the buffer pool. Call it once
// Predict.Data / MetricsJSON, which alias that memory, have been consumed;
// a frame never released is garbage collected instead of reused.
func (f *ClientFrame) Release() {
	f.buf.Release()
	f.buf = nil
}

// ReadClientFrame reads and decodes one server → client frame into pooled
// memory; call Release on the returned frame when its byte fields are no
// longer needed.
func ReadClientFrame(r *bufio.Reader) (ClientFrame, error) {
	msgType, flags, buf, err := readFrameBuf(r)
	if err != nil {
		return ClientFrame{}, err
	}
	frame := ClientFrame{Type: msgType, buf: buf}
	if err := frame.decode(flags, buf.B); err != nil {
		buf.Release()
		return ClientFrame{}, err
	}
	return frame, nil
}

// decode fills the frame's fields from its flags and body.
func (f *ClientFrame) decode(flags byte, body []byte) error {
	if flags != 0 && (f.Type != MsgPredict || flags != flagTrace) {
		return fmt.Errorf("serve: server frame type %d carries flags %#02x", f.Type, flags)
	}
	if flags == flagTrace {
		if len(body) < spanBlockBytes {
			return fmt.Errorf("serve: span block is %d bytes, want %d", len(body), spanBlockBytes)
		}
		var v [6]int64
		for i := range v {
			v[i] = int64(binary.BigEndian.Uint64(body[8*i:]))
		}
		f.Predict.Spans = &trace.WireSpans{
			RecvUnixNano: v[0], Admit: v[1], Queue: v[2], Assembly: v[3], Service: v[4], Encode: v[5],
		}
		body = body[spanBlockBytes:]
	}
	if len(body) < 8 {
		return fmt.Errorf("serve: server frame type %d body is %d bytes, want >= 8", f.Type, len(body))
	}
	id, rest := binary.BigEndian.Uint64(body), body[8:]
	switch f.Type {
	case MsgPredict:
		if len(rest) < 1 {
			return fmt.Errorf("serve: predict response carries no status byte")
		}
		f.Predict.ID, f.Predict.Status = id, Status(rest[0])
		if len(rest) > 1 {
			f.Predict.Data = rest[1:]
		}
	case MsgMetrics:
		f.MetricsID, f.MetricsJSON = id, rest
	case MsgProbe:
		if len(rest) != 1 {
			return fmt.Errorf("serve: probe response body is %d bytes, want 9", len(body))
		}
		f.ProbeID, f.ProbeReady = id, rest[0] == ProbeReady
	default:
		return fmt.Errorf("serve: unexpected server frame type %d", f.Type)
	}
	return nil
}
