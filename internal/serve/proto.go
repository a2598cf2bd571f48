// Package serve is the network serving front of the adaptive index: a
// TCP server speaking a compact length-prefixed binary protocol in
// front of one sharded column, with a per-shard batch scheduler that
// coalesces concurrently-arriving queries (shared-scan batching, the
// serving-layer analogue of the multi-query cooperation in "Main
// Memory Adaptive Indexing for Multi-core Systems") and admission
// control that rejects over-budget requests fast instead of queueing
// into collapse.
//
// # Wire format
//
// Every message — request or response — is one frame, mirroring the
// WAL sink's record discipline (internal/wal):
//
//	[length uint32][crc32(payload) uint32][payload]
//
// (little-endian, CRC-32/IEEE over the payload). A reader can detect
// truncated and corrupted frames and fail the connection instead of
// misparsing; length is bounded by MaxFramePayload, so a corrupt
// length field can never trigger a large allocation.
//
// Request payload (fixed RequestLen bytes):
//
//	[id uint64][op uint8][ttl_us uint32][lo int64][hi int64]
//
// Response payload (fixed ResponseLen bytes):
//
//	[id uint64][op uint8][status uint8][value int64][aux int64]
//
// Connections are pipelined: a client may keep many requests in
// flight; responses carry the request id and may arrive out of order
// (the batch scheduler reorders). TTL, in microseconds, propagates
// into the server-side context deadline (0 = none).
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame geometry.
const (
	// FrameHeader is the per-frame overhead: payload length plus
	// CRC-32 of the payload (the WAL sink's exact discipline).
	FrameHeader = 4 + 4
	// MaxFramePayload bounds one frame's payload; larger lengths are
	// treated as corruption before any allocation happens.
	MaxFramePayload = 1 << 16
	// RequestLen is the fixed request payload size.
	RequestLen = 8 + 1 + 4 + 8 + 8
	// ResponseLen is the fixed response payload size.
	ResponseLen = 8 + 1 + 1 + 8 + 8
)

// Op is a request operation kind.
type Op uint8

// Request operation kinds.
const (
	// OpCount evaluates Q1: count(*) where lo <= A < hi.
	OpCount Op = 1
	// OpSum evaluates Q2: sum(A) where lo <= A < hi.
	OpSum Op = 2
	// OpInsert adds one instance of the value in lo (hi is ignored).
	OpInsert Op = 3
	// OpDelete removes one instance of the value in lo; the response
	// value reports whether one existed (1/0).
	OpDelete Op = 4
	// OpStats returns the row count in value and the shard count in
	// aux.
	OpStats Op = 5
)

// String returns the op's display name.
func (o Op) String() string {
	switch o {
	case OpCount:
		return "count"
	case OpSum:
		return "sum"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// batchable reports whether the op goes through the batch scheduler
// (queries coalesce; writes and stats execute directly — a routed
// write is already a cheap epoch append with its own group machinery).
func (o Op) batchable() bool { return o == OpCount || o == OpSum }

// Status is a response status code.
type Status uint8

// Response status codes.
const (
	// StatusOK carries the answer in value.
	StatusOK Status = 0
	// StatusOverloaded is the admission-control fast reject: the
	// global in-flight budget or the connection's quota is exhausted.
	// The request was not queued and had no side effects; back off and
	// retry.
	StatusOverloaded Status = 1
	// StatusDeadline means the request's TTL expired before or while
	// it was served.
	StatusDeadline Status = 2
	// StatusBadRequest means the request was structurally invalid
	// (unknown op).
	StatusBadRequest Status = 3
	// StatusDraining means the server is shutting down gracefully and
	// no longer admits new requests.
	StatusDraining Status = 4
	// StatusInternal is an engine-side execution error.
	StatusInternal Status = 5
)

// String returns the status's display name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusDeadline:
		return "deadline"
	case StatusBadRequest:
		return "bad-request"
	case StatusDraining:
		return "draining"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Request is one decoded client request.
type Request struct {
	// ID is the client-chosen correlation id, echoed in the response.
	ID uint64
	// Op selects the operation.
	Op Op
	// TTLus is the request's time budget in microseconds (0 = none);
	// the server turns it into a context deadline.
	TTLus uint32
	// Lo and Hi are the range bounds for OpCount/OpSum; Lo is the
	// value for OpInsert/OpDelete.
	Lo, Hi int64
}

// Response is one decoded server response.
type Response struct {
	// ID echoes the request's correlation id.
	ID uint64
	// Op echoes the request's op.
	Op Op
	// Status is the outcome; Value is meaningful only under StatusOK.
	Status Status
	// Value is the answer: the count or sum, 1/0 found for OpDelete,
	// the row count for OpStats.
	Value int64
	// Aux is op-specific extra data (shard count for OpStats).
	Aux int64
}

// Frame-reader errors.
var (
	// ErrFrameTooLarge is returned for a frame whose declared payload
	// exceeds MaxFramePayload (treated as corruption; no allocation is
	// attempted).
	ErrFrameTooLarge = errors.New("serve: frame payload exceeds limit")
	// ErrCorruptFrame is returned when the payload CRC does not match.
	ErrCorruptFrame = errors.New("serve: frame CRC mismatch")
	// ErrBadPayload is returned when a payload has the wrong size for
	// its message type.
	ErrBadPayload = errors.New("serve: bad payload size")
)

// AppendRequestFrame appends q as one complete frame to dst and
// returns the extended slice.
func AppendRequestFrame(dst []byte, q Request) []byte {
	dst, p := growFrame(dst, RequestLen)
	binary.LittleEndian.PutUint64(p[0:], q.ID)
	p[8] = byte(q.Op)
	binary.LittleEndian.PutUint32(p[9:], q.TTLus)
	binary.LittleEndian.PutUint64(p[13:], uint64(q.Lo))
	binary.LittleEndian.PutUint64(p[21:], uint64(q.Hi))
	sealFrame(dst[len(dst)-FrameHeader-RequestLen:])
	return dst
}

// AppendResponseFrame appends r as one complete frame to dst and
// returns the extended slice.
func AppendResponseFrame(dst []byte, r Response) []byte {
	dst, p := growFrame(dst, ResponseLen)
	binary.LittleEndian.PutUint64(p[0:], r.ID)
	p[8] = byte(r.Op)
	p[9] = byte(r.Status)
	binary.LittleEndian.PutUint64(p[10:], uint64(r.Value))
	binary.LittleEndian.PutUint64(p[18:], uint64(r.Aux))
	sealFrame(dst[len(dst)-FrameHeader-ResponseLen:])
	return dst
}

// growFrame extends dst by one frame of an n-byte payload and returns
// the extended slice and the payload's bytes, which the caller encodes
// in place: no payload is built anywhere else and copied in.
func growFrame(dst []byte, n int) (out, payload []byte) {
	dst = slices.Grow(dst, FrameHeader+n)
	start := len(dst)
	dst = dst[:start+FrameHeader+n]
	return dst, dst[start+FrameHeader:]
}

// sealFrame writes the header of frame, whose payload is encoded: the
// payload's length and its CRC.
func sealFrame(frame []byte) {
	payload := frame[FrameHeader:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// DecodeRequest parses a request payload.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) != RequestLen {
		return Request{}, fmt.Errorf("%w: request %d bytes, want %d", ErrBadPayload, len(p), RequestLen)
	}
	return Request{
		ID:    binary.LittleEndian.Uint64(p[0:]),
		Op:    Op(p[8]),
		TTLus: binary.LittleEndian.Uint32(p[9:]),
		Lo:    int64(binary.LittleEndian.Uint64(p[13:])),
		Hi:    int64(binary.LittleEndian.Uint64(p[21:])),
	}, nil
}

// DecodeResponse parses a response payload.
func DecodeResponse(p []byte) (Response, error) {
	if len(p) != ResponseLen {
		return Response{}, fmt.Errorf("%w: response %d bytes, want %d", ErrBadPayload, len(p), ResponseLen)
	}
	return Response{
		ID:     binary.LittleEndian.Uint64(p[0:]),
		Op:     Op(p[8]),
		Status: Status(p[9]),
		Value:  int64(binary.LittleEndian.Uint64(p[10:])),
		Aux:    int64(binary.LittleEndian.Uint64(p[18:])),
	}, nil
}

// ReadFrame reads one frame from br and returns its payload (appended
// into buf, which may be nil; the returned slice aliases buf's
// backing array when it fits). It validates the declared length
// against MaxFramePayload BEFORE allocating and the payload CRC after
// reading, so corrupt input errors out instead of panicking or
// over-allocating. A clean EOF at a frame boundary returns io.EOF; a
// tear inside a frame returns io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(FrameHeader)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF: clean close between frames
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if _, err := br.Discard(FrameHeader); err != nil {
		return nil, err
	}
	if n == 0 || n > MaxFramePayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, ErrCorruptFrame
	}
	return buf, nil
}
