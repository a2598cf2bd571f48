package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// TestLogWriteFrames: a logged write is one small frame — 11 bytes for
// a small value in an early epoch, 29 at most — and the extremes of
// value and epoch read back exactly, in order, through Recover and
// Replay alike.
func TestLogWriteFrames(t *testing.T) {
	writes := []TailWrite{
		{Value: 0, Epoch: 0},
		{Value: 1, Delete: true, Epoch: 1},
		{Value: -1, Epoch: 2},
		{Value: 123456, Delete: true, Epoch: 1000},
		{Value: math.MinInt64, Epoch: 1 << 62},
		{Value: math.MaxInt64, Delete: true, Epoch: math.MaxInt64},
	}
	wantFrames := []int{11, 11, 11, 14, 8 + 21, 8 + 21}
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range writes {
		before := s.size
		if err := s.LogWrite(w.Value, w.Epoch, w.Delete); err != nil {
			t.Fatal(err)
		}
		if got := int(s.size - before); got != wantFrames[i] {
			t.Errorf("write %+v: %d-byte frame, want %d", w, got, wantFrames[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cat.Writes, writes) || len(cat.TailWrites) != 0 {
		t.Fatalf("Recover: Writes %+v, TailWrites %v; want %+v and no named writes", cat.Writes, cat.TailWrites, writes)
	}
	var got []TailWrite
	if _, err := Replay(img, func(r Record) {
		if r.Kind != LogicalWrite || r.LSN != 0 || r.Object != "" {
			t.Fatalf("compact write replayed as %+v", r)
		}
		got = append(got, TailWrite{Value: r.A, Delete: r.C != 0, Epoch: r.B})
	}); err != nil || !slices.Equal(got, writes) {
		t.Fatalf("Replay: %+v (%v), want %+v", got, err, writes)
	}
}

// TestReadDirMixedFormats: a store upgraded in place holds segments of
// Records written through a Log, then segments of compact writes; a
// later Log may append Records again. The image reads every logical
// write back in log order across the formats, and the named ones alone
// under their name.
func TestReadDirMixedFormats(t *testing.T) {
	dir := t.TempDir()
	opts := SinkOptions{SegmentBytes: 256, NoSync: true}
	var want, named []TailWrite
	legacy := func(n int) {
		s, err := NewFileSink(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		l := New(s)
		l.Append(Record{Kind: RunCreated, Object: "amerge", A: 1, B: 2})
		for _, r := range appendN(t, l, n, "col") {
			tw := TailWrite{Value: r.A, Delete: r.C != 0, Epoch: r.B}
			want, named = append(want, tw), append(named, tw)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	legacy(4) // 12 Records, over several segments
	s, err := NewFileSink(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range int64(60) {
		tw := TailWrite{Value: 1000 + i, Delete: i%3 == 0, Epoch: 10 + i/8}
		if err := s.LogWrite(tw.Value, tw.Epoch, tw.Delete); err != nil {
			t.Fatal(err)
		}
		want = append(want, tw)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	legacy(1)
	if segs, _ := segmentIndexes(dir); len(segs) < 5 {
		t.Fatalf("segments %v, want several of each format", segs)
	}

	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cat.Writes, want) {
		t.Fatalf("Writes = %+v, want %+v", cat.Writes, want)
	}
	if len(cat.TailWrites) != 1 || !slices.Equal(cat.TailWrites["col"], named) {
		t.Fatalf("TailWrites = %+v, want the %d named writes", cat.TailWrites, len(named))
	}
	var kinds []Kind
	if _, err := Replay(img, func(r Record) { kinds = append(kinds, r.Kind) }); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(want)+2 || kinds[0] != RunCreated {
		t.Fatalf("Replay read %d records starting %v, want %d starting with the run record", len(kinds), kinds[:1], len(want)+2)
	}
}

// FuzzWriteRecord checks the compact record and the log image:
// arbitrary bytes never panic the decoders; writes drawn from the input
// — values and epochs at their extremes included — framed as LogWrite
// frames them, read back exactly; and a torn or flipped frame stops
// reading at that frame.
func FuzzWriteRecord(f *testing.F) {
	le := binary.LittleEndian
	seed := func(ws ...TailWrite) []byte {
		var b []byte
		for _, w := range ws {
			b = le.AppendUint64(b, uint64(w.Value))
			e := uint64(w.Epoch) << 1
			if w.Delete {
				e |= 1
			}
			b = le.AppendUint64(b, e)
		}
		return b
	}
	f.Add(seed(TailWrite{Value: 5, Epoch: 1}, TailWrite{Value: -5, Delete: true, Epoch: 2}), uint16(14), byte(0x80), uint16(0))
	f.Add(seed(TailWrite{Value: math.MinInt64, Epoch: 1 << 62}, TailWrite{Value: math.MaxInt64, Delete: true, Epoch: 1 << 62}), uint16(3), byte(0x01), uint16(30))
	f.Add([]byte("ADXWAL2\n\x07\x01\x02\x03"), uint16(0), byte(0), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, at uint16, flip byte, cut uint16) {
		// Arbitrary bytes, as a record, an image and a segment.
		decodeWrite(data)
		Recover(data)
		Recover(append([]byte(imageMagic), data...))
		deframe(nil, data)

		// data read as writes: 16 bytes apiece, a value and epoch<<1|op,
		// the epoch capped at 2^62.
		var writes []TailWrite
		for rest := data; len(rest) >= 16; rest = rest[16:] {
			e := le.Uint64(rest[8:])
			writes = append(writes, TailWrite{Value: int64(le.Uint64(rest)), Delete: e&1 != 0, Epoch: int64(min(e>>1, 1<<62))})
		}
		seg := make([]byte, len(writes)*maxWriteFrame+maxWriteFrame)
		var starts []int
		end := 0
		for _, w := range writes {
			starts = append(starts, end)
			end += putWriteFrame(seg[end:], w.Value, w.Epoch, w.Delete)
		}
		starts = append(starts, end)
		read := func(raw []byte) ([]TailWrite, bool) {
			img, intact := deframe([]byte(imageMagic), raw)
			cat, err := Recover(img)
			if err != nil {
				t.Fatal(err)
			}
			return cat.Writes, intact
		}
		if got, intact := read(seg); !intact || !slices.Equal(got, writes) {
			t.Fatalf("read back %+v (intact %v), want %+v", got, intact, writes)
		}
		if len(writes) == 0 {
			return
		}

		// Torn: a copy cut short keeps the writes whose frames are whole.
		c := int(cut) % (end + 1)
		k := 0
		for k < len(writes) && starts[k+1] <= c {
			k++
		}
		if got, _ := read(seg[:c]); !slices.Equal(got, writes[:k]) {
			t.Fatalf("cut at %d of %d: read %d writes, want %d", c, end, len(got), k)
		}

		// Flipped: reading stops at the damaged frame, cleanly only if
		// the damage zeroed its length word. A damaged length may frame
		// other bytes whose CRC happens to match; damage anywhere else —
		// the frameWrite mark included — never reads as intact.
		if flip == 0 {
			return
		}
		i := int(at) % end
		k = 0
		for starts[k+1] <= i {
			k++
		}
		bad := bytes.Clone(seg)
		bad[i] ^= flip
		h := bad[starts[k]:]
		word := le.Uint32(h)
		n := int(word &^ frameWrite)
		if n != 0 && n != starts[k+1]-starts[k]-frameHeaderSize && frameHeaderSize+n <= len(h) {
			crc := crc32.ChecksumIEEE(h[frameHeaderSize : frameHeaderSize+n])
			if word&frameWrite != 0 {
				crc = crc32.Update(writeCRCSeed, crc32.IEEETable, h[frameHeaderSize:frameHeaderSize+n])
			}
			if crc == le.Uint32(h[4:]) {
				t.Skip("the damaged length frames other bytes with a matching CRC")
			}
		}
		if got, intact := read(bad); intact != (word == 0) || !slices.Equal(got, writes[:k]) {
			t.Fatalf("byte %d of frame %d flipped: %d writes, intact %v; want %d, intact %v",
				i, k, len(got), intact, k, word == 0)
		}
	})
}
