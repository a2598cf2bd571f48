package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{},
		{ID: 1, Op: OpCount, TTLus: 0, Lo: -10, Hi: 10},
		{ID: math.MaxUint64, Op: OpSum, TTLus: math.MaxUint32, Lo: math.MinInt64, Hi: math.MaxInt64},
		{ID: 42, Op: OpInsert, Lo: 7},
		{ID: 43, Op: OpDelete, Lo: -7},
		{ID: 44, Op: OpStats},
	}
	for _, want := range cases {
		frame := AppendRequestFrame(nil, want)
		br := bufio.NewReader(bytes.NewReader(frame))
		p, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("ReadFrame(%+v): %v", want, err)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("DecodeRequest(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{},
		{ID: 9, Op: OpCount, Status: StatusOK, Value: 123},
		{ID: 10, Op: OpSum, Status: StatusOverloaded, Value: -1, Aux: math.MaxInt64},
		{ID: math.MaxUint64, Op: OpStats, Status: StatusInternal, Value: math.MinInt64, Aux: -1},
	}
	for _, want := range cases {
		frame := AppendResponseFrame(nil, want)
		br := bufio.NewReader(bytes.NewReader(frame))
		p, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("ReadFrame(%+v): %v", want, err)
		}
		got, err := DecodeResponse(p)
		if err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestReadFrameMultipleAndCleanEOF(t *testing.T) {
	var stream []byte
	want := []Request{
		{ID: 1, Op: OpCount, Lo: 1, Hi: 2},
		{ID: 2, Op: OpSum, Lo: 3, Hi: 4},
		{ID: 3, Op: OpStats},
	}
	for _, q := range want {
		stream = AppendRequestFrame(stream, q)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, w := range want {
		p, err := ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if got != w {
			t.Fatalf("frame %d: got %+v want %+v", i, got, w)
		}
		buf = p[:0]
	}
	if _, err := ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("at stream end: err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := AppendRequestFrame(nil, Request{ID: 5, Op: OpCount, Lo: 1, Hi: 2})
	// Every proper prefix (except the empty one, which is clean EOF)
	// must yield io.ErrUnexpectedEOF.
	for cut := 1; cut < len(full); cut++ {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		_, err := ReadFrame(br, nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix %d/%d: err = %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
}

func TestReadFrameCorrupt(t *testing.T) {
	full := AppendRequestFrame(nil, Request{ID: 6, Op: OpSum, Lo: 10, Hi: 20})
	// Flip one bit anywhere in CRC or payload: must error, never parse.
	for i := 4; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		br := bufio.NewReader(bytes.NewReader(mut))
		_, err := ReadFrame(br, nil)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorruptFrame", i, err)
		}
	}
}

func TestReadFrameOversizedNoAllocation(t *testing.T) {
	// A corrupt length field declaring a huge payload must error before
	// anything near that size is allocated. The error path wraps with
	// fmt.Errorf (a few small allocations, more under -race), so the
	// bound is on bytes, far below even the smallest oversized payload.
	var hdr [FrameHeader]byte
	for _, n := range []uint32{MaxFramePayload + 1, math.MaxUint32} {
		binary.LittleEndian.PutUint32(hdr[0:], n)
		binary.LittleEndian.PutUint32(hdr[4:], 0)
		br := bufio.NewReader(bytes.NewReader(hdr[:]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(br, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("declared %d bytes: err = %v, want ErrFrameTooLarge", n, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<10 {
			t.Fatalf("declared %d bytes: reading the header allocated %d bytes; length guard missing?", n, alloc)
		}
	}

	// Zero-length frames are invalid too (no empty messages exist).
	binary.LittleEndian.PutUint32(hdr[0:], 0)
	br := bufio.NewReader(bytes.NewReader(hdr[:]))
	if _, err := ReadFrame(br, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("zero-length frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeWrongSize(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, RequestLen-1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short request: err = %v, want ErrBadPayload", err)
	}
	if _, err := DecodeRequest(make([]byte, RequestLen+1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("long request: err = %v, want ErrBadPayload", err)
	}
	if _, err := DecodeResponse(make([]byte, ResponseLen-1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short response: err = %v, want ErrBadPayload", err)
	}
	if _, err := DecodeResponse(make([]byte, ResponseLen+1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("long response: err = %v, want ErrBadPayload", err)
	}
}

// FuzzFrameReader feeds arbitrary bytes to the frame reader: it must
// terminate with a frame or an error — never panic, and never allocate
// a buffer larger than MaxFramePayload no matter what the length field
// claims.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRequestFrame(nil, Request{ID: 1, Op: OpCount, Lo: -5, Hi: 5}))
	f.Add(AppendResponseFrame(nil, Response{ID: 2, Op: OpSum, Status: StatusOK, Value: 9}))
	var huge [FrameHeader]byte
	binary.LittleEndian.PutUint32(huge[0:], math.MaxUint32)
	f.Add(huge[:])
	trunc := AppendRequestFrame(nil, Request{ID: 3, Op: OpStats})
	f.Add(trunc[:len(trunc)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			p, err := ReadFrame(br, buf)
			if err != nil {
				return // any error terminates cleanly
			}
			if len(p) == 0 || len(p) > MaxFramePayload {
				t.Fatalf("payload size %d escaped the frame bounds", len(p))
			}
			// Frames that happen to be request- or response-sized must
			// decode without panicking.
			if len(p) == RequestLen {
				if _, err := DecodeRequest(p); err != nil {
					t.Fatalf("DecodeRequest on exact-size payload: %v", err)
				}
			}
			if len(p) == ResponseLen {
				if _, err := DecodeResponse(p); err != nil {
					t.Fatalf("DecodeResponse on exact-size payload: %v", err)
				}
			}
			buf = p[:0]
		}
	})
}
