// Package payload defines the wire format of SUT responses. The LoadGen
// treats response data as opaque bytes (it only logs them); the accuracy
// script decodes them after the run to score model quality. Keeping the codec
// in one place lets any SUT implementation and the accuracy checker agree on
// the format.
//
// Every payload is [version 0x01][kind][varint-encoded fields]: a class
// prediction is one zigzag varint, a token sequence is a count plus one
// zigzag varint per token, and detection boxes are a count plus, per box,
// fixed 8-byte IEEE-754 coordinates and score with a zigzag-varint class.
// Encoding appends into a caller-supplied buffer (Append*), so the serving
// hot path runs it through pooled buffers without allocating; the payload
// travels as the opaque data field of a predict response frame.
package payload

import (
	"encoding/binary"
	"fmt"
	"math"

	"mlperf/internal/metrics"
)

// BinaryVersion is the leading version byte of every payload.
const BinaryVersion = 0x01

// Payload kind tags (the byte after the version byte).
const (
	kindClass  = 0x01
	kindBoxes  = 0x02
	kindTokens = 0x03
)

// zigzag folds signed integers into unsigned ones so small negative values
// stay short under varint encoding (protobuf's sint64 mapping).
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendZigzag(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, zigzag(int64(v)))
}

func readZigzag(data []byte) (int, int, error) {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("payload: truncated or oversized varint")
	}
	return int(unzigzag(u)), n, nil
}

// AppendClass appends a class prediction to dst and returns the
// extended slice. With sufficient capacity in dst it does not allocate.
func AppendClass(dst []byte, class int) []byte {
	dst = append(dst, BinaryVersion, kindClass)
	return appendZigzag(dst, class)
}

// AppendBoxes appends detection boxes to dst.
func AppendBoxes(dst []byte, boxes []metrics.Box) []byte {
	dst = append(dst, BinaryVersion, kindBoxes)
	dst = binary.AppendUvarint(dst, uint64(len(boxes)))
	for _, b := range boxes {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.X1))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Y1))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.X2))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Y2))
		dst = appendZigzag(dst, b.Class)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Score))
	}
	return dst
}

// AppendTokens appends a translation hypothesis to dst.
func AppendTokens(dst []byte, tokens []int) []byte {
	dst = append(dst, BinaryVersion, kindTokens)
	dst = binary.AppendUvarint(dst, uint64(len(tokens)))
	for _, t := range tokens {
		dst = appendZigzag(dst, t)
	}
	return dst
}

// fields validates the version/kind header and returns the field bytes.
func fields(data []byte, kind byte, what string) ([]byte, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("payload: truncated payload (%d bytes)", len(data))
	}
	if data[0] != BinaryVersion {
		return nil, fmt.Errorf("payload: unknown version byte 0x%02x", data[0])
	}
	if data[1] != kind {
		return nil, fmt.Errorf("payload: payload kind 0x%02x is not a %s prediction", data[1], what)
	}
	return data[2:], nil
}

// DecodeClass parses a class prediction.
func DecodeClass(data []byte) (int, error) {
	body, err := fields(data, kindClass, "class")
	if err != nil {
		return 0, err
	}
	class, n, err := readZigzag(body)
	if err != nil {
		return 0, fmt.Errorf("payload: decoding class prediction: %w", err)
	}
	if n != len(body) {
		return 0, fmt.Errorf("payload: %d trailing bytes after class prediction", len(body)-n)
	}
	return class, nil
}

// boxBytes is the fixed per-box tail (4 coords + score); the class varint
// adds at least one more byte. Bounding the declared count by the remaining
// bytes keeps a lying count prefix from over-allocating.
const boxBytes = 5*8 + 1

// DecodeBoxes parses detection boxes; an empty list decodes as nil.
func DecodeBoxes(data []byte) ([]metrics.Box, error) {
	body, err := fields(data, kindBoxes, "detection")
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("payload: decoding detection box count: truncated varint")
	}
	body = body[n:]
	if count > uint64(len(body)/boxBytes) {
		return nil, fmt.Errorf("payload: detection box count %d exceeds the %d payload bytes", count, len(body))
	}
	var boxes []metrics.Box
	if count > 0 {
		boxes = make([]metrics.Box, count)
	}
	for i := range boxes {
		if len(body) < 4*8 {
			return nil, fmt.Errorf("payload: truncated detection box %d", i)
		}
		boxes[i].X1 = math.Float64frombits(binary.LittleEndian.Uint64(body[0:]))
		boxes[i].Y1 = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		boxes[i].X2 = math.Float64frombits(binary.LittleEndian.Uint64(body[16:]))
		boxes[i].Y2 = math.Float64frombits(binary.LittleEndian.Uint64(body[24:]))
		body = body[32:]
		class, n, err := readZigzag(body)
		if err != nil {
			return nil, fmt.Errorf("payload: decoding detection box %d class: %w", i, err)
		}
		body = body[n:]
		if len(body) < 8 {
			return nil, fmt.Errorf("payload: truncated detection box %d score", i)
		}
		boxes[i].Class = class
		boxes[i].Score = math.Float64frombits(binary.LittleEndian.Uint64(body[0:]))
		body = body[8:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("payload: %d trailing bytes after detection boxes", len(body))
	}
	return boxes, nil
}

// DecodeTokens parses a translation hypothesis into a fresh slice; an empty
// hypothesis decodes as nil.
func DecodeTokens(data []byte) ([]int, error) {
	return DecodeTokensInto(nil, data)
}

// DecodeTokensInto decodes a translation hypothesis into dst, reusing its
// backing array when capacity allows — the allocation-free receive path for
// clients that score in place.
func DecodeTokensInto(dst []int, data []byte) ([]int, error) {
	body, err := fields(data, kindTokens, "translation")
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("payload: decoding token count: truncated varint")
	}
	body = body[n:]
	// Every token costs at least one varint byte, so a count beyond the
	// remaining length is a lie — reject it before allocating.
	if count > uint64(len(body)) {
		return nil, fmt.Errorf("payload: token count %d exceeds the %d payload bytes", count, len(body))
	}
	if uint64(cap(dst)) < count {
		dst = make([]int, count)
	}
	dst = dst[:count]
	for i := range dst {
		t, n, err := readZigzag(body)
		if err != nil {
			return nil, fmt.Errorf("payload: decoding token %d: %w", i, err)
		}
		dst[i] = t
		body = body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("payload: %d trailing bytes after tokens", len(body))
	}
	return dst, nil
}
