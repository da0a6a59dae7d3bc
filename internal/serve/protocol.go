package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mlperf/internal/trace"
)

// Wire protocol. Every message — both directions — is one length-prefixed
// frame:
//
//	[u32 body length (big endian)] [u8 message type] [body ...]
//
// Version 1 (frame types 1–4) addresses a single-engine server. Client →
// server bodies:
//
//	MsgPredict: u64 request id, u32 sample index, i64 absolute deadline
//	            (UnixNano, 0 = none)
//	MsgFlush:   empty — end of the query series; the batcher flushes and
//	            switches to pass-through (late requests dispatch at once)
//	MsgReopen:  empty — re-arm batching for a new series
//	MsgMetrics: u64 request id — ask for a metrics snapshot
//
// Version 2 (frame types 5–8) adds a model id so one listener can host
// several named engines. Each V2 body begins with [u8 model-id length]
// [model-id bytes] and continues with the corresponding V1 body:
//
//	MsgPredictModel: model id, then the MsgPredict body
//	MsgFlushModel:   model id only — flush that model's series ("" = all)
//	MsgReopenModel:  model id only — re-arm that model ("" = all)
//	MsgMetricsModel: u64 request id, then the model id — that model's
//	                 snapshot ("" = the merged snapshot across models)
//
// The two versions interoperate: a V2 server accepts V1 frames and routes
// them to its default model (the single hosted engine, when unambiguous),
// and a client that never sets a model id emits byte-identical V1 frames,
// so a PR 4 client and a PR 4 server each pair with their newer counterpart.
//
// Server → client bodies (shared by both versions; responses are
// demultiplexed by request id, so they carry no model id):
//
//	MsgPredict: u64 request id, u8 status, payload bytes (the sample's
//	            encoded model.Output when status is StatusOK, empty otherwise)
//	MsgMetrics: u64 request id, JSON-encoded Snapshot
//
// The payload bytes are exactly what model.Output.Encode produces, so a
// response relayed by backend.Remote is bit-identical to what backend.Native
// hands the LoadGen for the same sample. Sample *indexes*, not tensors, cross
// the wire: like the reference LoadGen's QSL contract, the data set is loaded
// on the serving side before the timed run, and the network carries queries
// and answers only.
const (
	// MsgPredict requests inference for one sample (and carries its answer).
	MsgPredict byte = 1
	// MsgFlush marks the end of the query series.
	MsgFlush byte = 2
	// MsgReopen re-arms batching for a new series.
	MsgReopen byte = 3
	// MsgMetrics requests a metrics snapshot.
	MsgMetrics byte = 4
	// MsgPredictModel is MsgPredict addressed to a named model (V2).
	MsgPredictModel byte = 5
	// MsgFlushModel is MsgFlush addressed to a named model (V2).
	MsgFlushModel byte = 6
	// MsgReopenModel is MsgReopen addressed to a named model (V2).
	MsgReopenModel byte = 7
	// MsgMetricsModel is MsgMetrics addressed to a named model (V2).
	MsgMetricsModel byte = 8
	// MsgProbe is the V2 health-check frame. Request body: u64 probe id.
	// Response body: the echoed u64 id plus one readiness byte — ProbeReady
	// when the server is admitting work, ProbeDraining once graceful drain
	// has begun (the replica still answers what it admitted, but a router
	// must not readmit it). backend.Remote's recovery supervisor probes a
	// re-dialed replica with this frame before routing traffic to it again.
	MsgProbe byte = 9
	// MsgPredictTraced is the V3 predict frame: a MsgPredictModel that also
	// carries a trace id, used only for head-sampled requests (the other
	// SampleEvery−1 requests stay byte-identical V1/V2 frames).
	//
	// Request body:  u64 trace id, then the MsgPredictModel body
	//                ([u8 model-id length][model-id][20-byte predict body];
	//                an empty model id targets the default model, like V1).
	// Response body: u64 request id, u8 status, u8 span flag, then — when
	//                the flag is SpanBlockPresent — a 48-byte server span
	//                block (i64 receipt UnixNano and five i64 nanosecond
	//                durations: admit, queue wait, batch assembly, service,
	//                encode), then the payload bytes.
	//
	// Degradation is graceful in both directions: a server without a tracer
	// answers a traced request with a plain MsgPredict response (the client
	// demultiplexes by request id, not frame type, and simply gets no server
	// spans), and an untraced client never emits type 10, so a tracing
	// server speaks pure V1/V2 to it.
	MsgPredictTraced byte = 10
)

// Span-flag values carried in a MsgPredictTraced response.
const (
	// SpanBlockAbsent: the response carries no server span block.
	SpanBlockAbsent byte = 0
	// SpanBlockPresent: a 48-byte server span block follows the flag.
	SpanBlockPresent byte = 1
)

// spanBlockBytes is the encoded size of a server span block: receipt
// timestamp plus five stage durations, eight bytes each.
const spanBlockBytes = 48

// Probe readiness verdicts carried in a MsgProbe response.
const (
	// ProbeDraining: the server is retiring; do not send new work.
	ProbeDraining byte = 0
	// ProbeReady: the server is admitting work.
	ProbeReady byte = 1
)

// Protocol versions. A frame's version is implied by its type: types 1–4 are
// V1, types 5–8 are V2.
const (
	ProtocolV1 = 1
	ProtocolV2 = 2
	// ProtocolV3 adds the traced predict frame (type 10).
	ProtocolV3 = 3
)

// maxModelIDLen bounds a wire model id (its length is a u8).
const maxModelIDLen = 255

// Status reports how the server disposed of a predict request.
type Status byte

const (
	// StatusOK: inference ran; the payload is the encoded output.
	StatusOK Status = iota
	// StatusRejected: admission control turned the request away (queue full).
	StatusRejected
	// StatusExpired: the request's deadline passed before service began.
	StatusExpired
	// StatusError: the sample failed to load, infer or encode.
	StatusError
)

// String returns the status's wire-log name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRejected:
		return "rejected"
	case StatusExpired:
		return "expired"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("status(%d)", byte(s))
	}
}

// maxFrameBytes bounds a single frame so a corrupt length prefix cannot make
// a reader allocate unboundedly. Encoded outputs are small (a class id, a box
// list, a token list); 16 MiB is far above anything legitimate.
const maxFrameBytes = 16 << 20

// PredictRequest is the client-side form of a MsgPredict request frame.
type PredictRequest struct {
	// ID is echoed verbatim in the response so the client can demultiplex
	// concurrent requests on one connection.
	ID uint64
	// SampleIndex addresses the sample in the server's store.
	SampleIndex int
	// Deadline, when non-zero, is the absolute time after which the server
	// must not begin service (it answers StatusExpired instead). Client and
	// server share a clock on a loopback deployment.
	Deadline time.Time
	// Model addresses one of the server's named engines. Empty targets the
	// server's default model and encodes as a V1 frame, byte-identical to the
	// PR 4 protocol; non-empty encodes as MsgPredictModel (V2).
	Model string
	// TraceID, when non-zero, marks the request head-sampled for tracing
	// and switches the encoding to MsgPredictTraced (V3). Zero — the
	// overwhelmingly common case — leaves the V1/V2 encoding untouched.
	TraceID uint64
}

// PredictResponse is the client-side form of a MsgPredict response frame.
type PredictResponse struct {
	ID     uint64
	Status Status
	// Data is the encoded model.Output for StatusOK, empty otherwise.
	Data []byte
	// Spans holds the server-measured span block from a MsgPredictTraced
	// response, nil for plain responses (and for traced responses whose
	// server recorded no spans).
	Spans *trace.WireSpans
}

// frameHeaderBytes is the size of the [u32 length][u8 type] frame prefix.
const frameHeaderBytes = 5

// writeFrame emits one frame from a separate header and body (two writes).
// The caller serializes concurrent writers. Hot paths build complete frames
// in pooled buffers (beginFrame/endFrame) and hand the writer a single
// contiguous slice instead.
func writeFrame(w io.Writer, msgType byte, body []byte) error {
	var header [frameHeaderBytes]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(body)))
	header[4] = msgType
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// beginFrame reserves space for a frame header at the end of dst; the body
// is appended after it and endFrame patches the header in. Building frames
// this way — header and body in one buffer, one Write to the socket —
// removes both the per-frame body allocation and the double copy the old
// encoders paid (build body, then prepend the header separately).
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0)
}

// endFrame patches the header of the frame that starts at offset start in
// buf (start is len(dst) at the matching beginFrame call).
func endFrame(buf []byte, start int, msgType byte) []byte {
	binary.BigEndian.PutUint32(buf[start:start+4], uint32(len(buf)-start-frameHeaderBytes))
	buf[start+4] = msgType
	return buf
}

// readBodyChunk caps the allocation readFrame makes before any body bytes
// have actually arrived, so a lying length prefix on a truncated stream costs
// at most one chunk of memory rather than the claimed frame size.
const readBodyChunk = 64 << 10

// readFrame reads one frame, returning its type and body. Bodies up to
// readBodyChunk — every frame on the predict/response hot path — are read
// with a single allocation, exactly sized. A larger body is sized in full
// only after its first chunk has actually arrived, so the claimed length
// alone never drives the allocation (a lying prefix on a truncated stream
// costs one pooled chunk, not maxFrameBytes).
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var header [5]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(header[:4]))
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	if n <= readBodyChunk {
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, nil, err
		}
		return header[4], body, nil
	}
	// A large frame: prove the peer is actually transmitting before
	// committing the claimed size — read one chunk first (a lying prefix on
	// a truncated stream costs at most this chunk), then size the body to
	// the full n exactly once and fill the remainder directly into it. The
	// old path append-grew from a chunk-sized cap, re-copying a
	// maxFrameBytes body around eight times on the way up.
	probe := AcquireBuffer(readBodyChunk)
	first := probe.B[:readBodyChunk]
	if _, err := io.ReadFull(r, first); err != nil {
		probe.Release()
		return 0, nil, err
	}
	body := make([]byte, n)
	copy(body, first)
	probe.Release()
	if _, err := io.ReadFull(r, body[readBodyChunk:]); err != nil {
		return 0, nil, err
	}
	return header[4], body, nil
}

// readFrameBuf is readFrame on pooled memory: the body lives in a Buffer
// from the size-classed pool, which the caller must Release once every
// sub-slice of it (payload data, metrics JSON) has been consumed. This is
// the steady-state read path on both ends of the wire — it allocates
// nothing once the pools are warm.
func readFrameBuf(r *bufio.Reader) (byte, *Buffer, error) {
	// Peek the header out of the bufio buffer rather than io.ReadFull into a
	// local array: the interface-typed ReadFull call makes a local header
	// escape, which would put one 5-byte heap allocation on every frame read.
	header, err := r.Peek(frameHeaderBytes)
	if err != nil {
		if err == io.EOF && len(header) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(header[:4]))
	msgType := header[4]
	if _, err := r.Discard(frameHeaderBytes); err != nil {
		return 0, nil, err
	}
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	if n <= readBodyChunk {
		buf := AcquireBuffer(n)
		buf.B = buf.B[:n]
		if _, err := io.ReadFull(r, buf.B); err != nil {
			buf.Release()
			return 0, nil, err
		}
		return msgType, buf, nil
	}
	// Same lying-prefix discipline as readFrame: one chunk up front, the
	// full pool acquisition only after it arrives.
	probe := AcquireBuffer(readBodyChunk)
	first := probe.B[:readBodyChunk]
	if _, err := io.ReadFull(r, first); err != nil {
		probe.Release()
		return 0, nil, err
	}
	buf := AcquireBuffer(n)
	buf.B = buf.B[:n]
	copy(buf.B, first)
	probe.Release()
	if _, err := io.ReadFull(r, buf.B[readBodyChunk:]); err != nil {
		buf.Release()
		return 0, nil, err
	}
	return msgType, buf, nil
}

// appendModelID appends a model id (u8 length + bytes) to a frame body.
func appendModelID(dst []byte, model string) ([]byte, error) {
	if len(model) > maxModelIDLen {
		return nil, fmt.Errorf("serve: model id %q is %d bytes, limit %d", model, len(model), maxModelIDLen)
	}
	dst = append(dst, byte(len(model)))
	return append(dst, model...), nil
}

// splitModelID pops a model id off the front of a V2 frame body.
func splitModelID(body []byte) (string, []byte, error) {
	if len(body) < 1 {
		return "", nil, fmt.Errorf("serve: body too short for a model id")
	}
	n := int(body[0])
	if len(body) < 1+n {
		return "", nil, fmt.Errorf("serve: model id of %d bytes exceeds the %d-byte body", n, len(body)-1)
	}
	return string(body[1 : 1+n]), body[1+n:], nil
}

// WritePredictRequest encodes and writes one predict request frame: a V1
// MsgPredict when req.Model is empty (byte-identical to the PR 4 wire
// format), a V2 MsgPredictModel otherwise, a V3 MsgPredictTraced when a
// trace id is set. The frame is assembled in a pooled buffer and handed to
// the writer as one contiguous Write — the swarm send path's steady state
// allocates nothing here.
func WritePredictRequest(w io.Writer, req PredictRequest) error {
	buf := AcquireBuffer(frameHeaderBytes + 8 + 1 + len(req.Model) + 20)
	defer buf.Release()
	b := beginFrame(buf.B)
	var msgType byte
	switch {
	case req.TraceID != 0:
		msgType = MsgPredictTraced
		b = binary.BigEndian.AppendUint64(b, req.TraceID)
		var err error
		if b, err = appendModelID(b, req.Model); err != nil {
			return err
		}
	case req.Model == "":
		msgType = MsgPredict
	default:
		msgType = MsgPredictModel
		var err error
		if b, err = appendModelID(b, req.Model); err != nil {
			return err
		}
	}
	b = binary.BigEndian.AppendUint64(b, req.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(req.SampleIndex))
	var deadline int64
	if !req.Deadline.IsZero() {
		deadline = req.Deadline.UnixNano()
	}
	b = binary.BigEndian.AppendUint64(b, uint64(deadline))
	buf.B = endFrame(b, 0, msgType)
	_, err := w.Write(buf.B)
	return err
}

// decodePredictTracedRequest parses a MsgPredictTraced request body into
// the request (Model and TraceID populated).
func decodePredictTracedRequest(body []byte) (PredictRequest, error) {
	if len(body) < 8 {
		return PredictRequest{}, fmt.Errorf("serve: traced predict body is %d bytes, want >= 8", len(body))
	}
	traceID := binary.BigEndian.Uint64(body[0:8])
	if traceID == 0 {
		return PredictRequest{}, fmt.Errorf("serve: traced predict frame carries a zero trace id")
	}
	model, rest, err := splitModelID(body[8:])
	if err != nil {
		return PredictRequest{}, err
	}
	req, err := decodePredictRequest(rest)
	if err != nil {
		return PredictRequest{}, err
	}
	req.Model = model
	req.TraceID = traceID
	return req, nil
}

// decodePredictRequest parses a MsgPredict request body.
func decodePredictRequest(body []byte) (PredictRequest, error) {
	if len(body) != 20 {
		return PredictRequest{}, fmt.Errorf("serve: predict request body is %d bytes, want 20", len(body))
	}
	req := PredictRequest{
		ID:          binary.BigEndian.Uint64(body[0:8]),
		SampleIndex: int(binary.BigEndian.Uint32(body[8:12])),
	}
	if nanos := int64(binary.BigEndian.Uint64(body[12:20])); nanos != 0 {
		req.Deadline = time.Unix(0, nanos)
	}
	return req, nil
}

// encodePredictResponse builds a MsgPredict response body.
func encodePredictResponse(id uint64, status Status, data []byte) []byte {
	body := make([]byte, 9+len(data))
	binary.BigEndian.PutUint64(body[0:8], id)
	body[8] = byte(status)
	copy(body[9:], data)
	return body
}

// encodePredictTracedResponse builds a MsgPredictTraced response body:
// the plain response prefix, a span flag, and — when spans is non-nil —
// the 48-byte server span block ahead of the payload.
func encodePredictTracedResponse(id uint64, status Status, spans *trace.WireSpans, data []byte) []byte {
	size := 10 + len(data)
	if spans != nil {
		size += spanBlockBytes
	}
	body := make([]byte, 0, size)
	body = binary.BigEndian.AppendUint64(body, id)
	body = append(body, byte(status))
	if spans == nil {
		body = append(body, SpanBlockAbsent)
		return append(body, data...)
	}
	body = append(body, SpanBlockPresent)
	for _, v := range [6]int64{spans.RecvUnixNano, spans.Admit, spans.Queue, spans.Assembly, spans.Service, spans.Encode} {
		body = binary.BigEndian.AppendUint64(body, uint64(v))
	}
	return append(body, data...)
}

// appendPredictResponseFrame appends a complete MsgPredict response frame
// (header included) to dst — the single-buffer, single-copy form of
// encodePredictResponse used by the pooled respond path.
func appendPredictResponseFrame(dst []byte, id uint64, status Status, data []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(status))
	dst = append(dst, data...)
	return endFrame(dst, start, MsgPredict)
}

// appendPredictTracedResponseFrame appends a complete MsgPredictTraced
// response frame to dst.
func appendPredictTracedResponseFrame(dst []byte, id uint64, status Status, spans *trace.WireSpans, data []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(status))
	if spans == nil {
		dst = append(dst, SpanBlockAbsent)
	} else {
		dst = append(dst, SpanBlockPresent)
		for _, v := range [6]int64{spans.RecvUnixNano, spans.Admit, spans.Queue, spans.Assembly, spans.Service, spans.Encode} {
			dst = binary.BigEndian.AppendUint64(dst, uint64(v))
		}
	}
	dst = append(dst, data...)
	return endFrame(dst, start, MsgPredictTraced)
}

// appendIDPrefixFrame appends a complete frame whose body is a u64 id plus
// data (metrics responses).
func appendIDPrefixFrame(dst []byte, msgType byte, id uint64, data []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, data...)
	return endFrame(dst, start, msgType)
}

// appendProbeResponseFrame appends a complete MsgProbe response frame.
func appendProbeResponseFrame(dst []byte, id uint64, ready byte) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, ready)
	return endFrame(dst, start, MsgProbe)
}

// decodePredictTracedResponse parses a MsgPredictTraced response body.
func decodePredictTracedResponse(body []byte) (PredictResponse, error) {
	if len(body) < 10 {
		return PredictResponse{}, fmt.Errorf("serve: traced predict response body is %d bytes, want >= 10", len(body))
	}
	resp := PredictResponse{
		ID:     binary.BigEndian.Uint64(body[0:8]),
		Status: Status(body[8]),
	}
	rest := body[10:]
	switch flag := body[9]; flag {
	case SpanBlockAbsent:
	case SpanBlockPresent:
		if len(rest) < spanBlockBytes {
			return PredictResponse{}, fmt.Errorf("serve: traced response span block is %d bytes, want %d", len(rest), spanBlockBytes)
		}
		var vals [6]int64
		for i := range vals {
			vals[i] = int64(binary.BigEndian.Uint64(rest[8*i : 8*i+8]))
		}
		resp.Spans = &trace.WireSpans{
			RecvUnixNano: vals[0], Admit: vals[1], Queue: vals[2],
			Assembly: vals[3], Service: vals[4], Encode: vals[5],
		}
		rest = rest[spanBlockBytes:]
	default:
		return PredictResponse{}, fmt.Errorf("serve: traced response has unknown span flag %d", flag)
	}
	if len(rest) > 0 {
		resp.Data = rest
	}
	return resp, nil
}

// decodePredictResponse parses a MsgPredict response body.
func decodePredictResponse(body []byte) (PredictResponse, error) {
	if len(body) < 9 {
		return PredictResponse{}, fmt.Errorf("serve: predict response body is %d bytes, want >= 9", len(body))
	}
	resp := PredictResponse{
		ID:     binary.BigEndian.Uint64(body[0:8]),
		Status: Status(body[8]),
	}
	if len(body) > 9 {
		resp.Data = body[9:]
	}
	return resp, nil
}

// WriteControl writes a bodyless control frame (MsgFlush, MsgReopen).
func WriteControl(w io.Writer, msgType byte) error {
	return writeFrame(w, msgType, nil)
}

// WriteControlModel writes a model-addressed control frame. msgType is the V1
// control type (MsgFlush or MsgReopen); an empty model emits the V1 frame
// unchanged, a non-empty one the corresponding V2 frame. On a multi-model
// server, an empty model id applies the control to every hosted model.
func WriteControlModel(w io.Writer, msgType byte, model string) error {
	if model == "" {
		return WriteControl(w, msgType)
	}
	var v2 byte
	switch msgType {
	case MsgFlush:
		v2 = MsgFlushModel
	case MsgReopen:
		v2 = MsgReopenModel
	default:
		return fmt.Errorf("serve: message type %d is not a control frame", msgType)
	}
	body, err := appendModelID(make([]byte, 0, 1+len(model)), model)
	if err != nil {
		return err
	}
	return writeFrame(w, v2, body)
}

// WriteProbeRequest writes a health-probe request frame.
func WriteProbeRequest(w io.Writer, id uint64) error {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], id)
	return writeFrame(w, MsgProbe, body[:])
}

// encodeProbeResponse builds a MsgProbe response body: id + readiness byte.
func encodeProbeResponse(id uint64, ready byte) []byte {
	var body [9]byte
	binary.BigEndian.PutUint64(body[0:8], id)
	body[8] = ready
	return body[:]
}

// decodeProbeResponse parses a MsgProbe response body.
func decodeProbeResponse(body []byte) (id uint64, ready byte, err error) {
	if len(body) != 9 {
		return 0, 0, fmt.Errorf("serve: probe response body is %d bytes, want 9", len(body))
	}
	return binary.BigEndian.Uint64(body[0:8]), body[8], nil
}

// WriteMetricsRequest writes a metrics-snapshot request frame.
func WriteMetricsRequest(w io.Writer, id uint64) error {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], id)
	return writeFrame(w, MsgMetrics, body[:])
}

// WriteMetricsRequestModel writes a metrics-snapshot request addressed to one
// named model; an empty model emits the V1 frame, which a multi-model server
// answers with its merged snapshot.
func WriteMetricsRequestModel(w io.Writer, id uint64, model string) error {
	if model == "" {
		return WriteMetricsRequest(w, id)
	}
	var fixed [8]byte
	binary.BigEndian.PutUint64(fixed[:], id)
	body, err := appendModelID(append(make([]byte, 0, 8+1+len(model)), fixed[:]...), model)
	if err != nil {
		return err
	}
	return writeFrame(w, MsgMetricsModel, body)
}

// ClientFrame is one server → client message, as read by backend.Remote.
type ClientFrame struct {
	// Type is the frame's message type (MsgPredict, MsgMetrics or MsgProbe).
	Type byte
	// Predict is populated when Type is MsgPredict or MsgPredictTraced.
	Predict PredictResponse
	// MetricsID and MetricsJSON are populated when Type is MsgMetrics.
	MetricsID   uint64
	MetricsJSON []byte
	// ProbeID and ProbeReady are populated when Type is MsgProbe.
	ProbeID    uint64
	ProbeReady bool
	// buf backs Predict.Data and MetricsJSON when the frame was read off
	// the pool; Release returns it.
	buf *Buffer
}

// Release returns the frame's pooled body to the buffer pool. Call it once
// Predict.Data / MetricsJSON have been consumed (they alias the pooled
// memory); a frame that was never pooled releases nothing. Not releasing is
// safe — the buffer is simply garbage collected instead of reused.
func (f *ClientFrame) Release() {
	if f.buf != nil {
		f.buf.Release()
		f.buf = nil
	}
}

// ReadClientFrame reads and decodes one server → client frame into pooled
// memory; call Release on the returned frame when its byte fields are no
// longer needed.
func ReadClientFrame(r *bufio.Reader) (ClientFrame, error) {
	msgType, buf, err := readFrameBuf(r)
	if err != nil {
		return ClientFrame{}, err
	}
	body := buf.B
	frame := ClientFrame{Type: msgType, buf: buf}
	switch msgType {
	case MsgPredict:
		frame.Predict, err = decodePredictResponse(body)
	case MsgPredictTraced:
		frame.Predict, err = decodePredictTracedResponse(body)
	case MsgMetrics:
		frame.MetricsID, frame.MetricsJSON, err = decodeIDPrefix(body)
	case MsgProbe:
		var ready byte
		frame.ProbeID, ready, err = decodeProbeResponse(body)
		frame.ProbeReady = ready == ProbeReady
	default:
		err = fmt.Errorf("serve: unexpected server frame type %d", msgType)
	}
	if err != nil {
		buf.Release()
		return ClientFrame{}, err
	}
	return frame, nil
}

// encodeIDPrefix builds a body of one u64 id followed by data.
func encodeIDPrefix(id uint64, data []byte) []byte {
	body := make([]byte, 8+len(data))
	binary.BigEndian.PutUint64(body[0:8], id)
	copy(body[8:], data)
	return body
}

// decodeIDPrefix splits a body into its u64 id and the rest.
func decodeIDPrefix(body []byte) (uint64, []byte, error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("serve: body is %d bytes, want >= 8", len(body))
	}
	return binary.BigEndian.Uint64(body[0:8]), body[8:], nil
}
