package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// appendN appends n committed single-record system transactions
// through a log backed by sink.
func appendN(t *testing.T, l *Log, n int, obj string) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := uint64(i + 1)
		for _, r := range []Record{
			{Kind: BeginSystem, Txn: txn},
			{Kind: ShardSplit, Txn: txn, Object: obj, A: int64(100 + i)},
			{Kind: CommitSystem, Txn: txn},
		} {
			if _, err := l.Append(r); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendN(t, l, 5, "col")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	n, err := Replay(raw, func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 || len(got) != 15 {
		t.Fatalf("replayed %d records, want 15", n)
	}
	want := l.Records()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestFileSinkRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendN(t, l, 20, "col")
	segs, err := s.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation into multiple segments, got %v", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := ReadDir(dir)
	n, _ := Replay(raw, func(Record) {})
	if n != 60 {
		t.Fatalf("replayed %d records across segments, want 60", n)
	}
}

func TestFileSinkTornTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendN(t, l, 4, "col")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop bytes off the last (only) segment mid-frame.
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(img, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("replayed %d records with torn tail, want 11", n)
	}
}

func TestFileSinkCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendN(t, l, 3, "col")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file: the CRC of that
	// frame fails and reading stops there.
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(img, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n >= 9 {
		t.Fatalf("replayed %d records despite corrupt frame", n)
	}
}

func TestFileSinkCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendN(t, l, 10, "col")
	seg, err := s.MarkCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A record logged after the rotation lands in the fresh segment.
	if _, err := l.Append(Record{Kind: LogicalWrite, Object: "col", A: 1, B: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseBefore(seg); err != nil {
		t.Fatal(err)
	}
	segs, err := s.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range segs {
		if i < seg {
			t.Fatalf("segment %d survived ReleaseBefore(%d): %v", i, seg, segs)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, _ := ReadDir(dir)
	var kinds []Kind
	if _, err := Replay(img, func(r Record) { kinds = append(kinds, r.Kind) }); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != LogicalWrite {
		t.Fatalf("after truncation want only the record logged after the rotation, got %v", kinds)
	}
}

func TestFileSinkAbandonsSegmentAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendN(t, l, 1, "col")
	// Simulate a failed write that left a partial frame: garbage in the
	// current segment plus the sink's failed-write flag.
	if _, err := s.f.Write([]byte{0x77, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	s.werr = true

	// The next record must land in a fresh segment, not behind the
	// garbage — and MarkCheckpoint must not reuse the damaged segment.
	appendN(t, l, 1, "col")
	if s.seg != 2 {
		t.Fatalf("write after failure stayed in segment %d", s.seg)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(img, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("replayed %d records, want 6 (both txns readable)", n)
	}
}

func TestReadDirSkipsDamagedEarlierSegment(t *testing.T) {
	// A stale segment with a torn tail (e.g. a failed truncation after
	// a crash) must not mask the segments written after it: reading
	// resumes at the next segment boundary.
	dir := t.TempDir()
	s1, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, New(s1), 3, "col")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// A later incarnation commits a transaction into fresh segments.
	s2, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l2 := New(s2)
	for _, r := range []Record{
		{Kind: BeginSystem, Txn: 1},
		{Kind: EpochSeal, Txn: 1, Object: "col", B: 42},
		{Kind: CommitSystem, Txn: 1},
	} {
		if _, err := l2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
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
	if got := cat.SealedEpochs["col"]; len(got) != 1 || got[0] != 42 {
		t.Fatalf("SealedEpochs = %v: the transaction behind a damaged segment was not recovered", got)
	}
}

func TestFileSinkReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l1 := New(s1)
	appendN(t, l1, 2, "col")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l2 := New(s2)
	appendN(t, l2, 2, "col")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("want 2 segments after reopen, got %v", segs)
	}
	img, _ := ReadDir(dir)
	n, _ := Replay(img, func(Record) {})
	if n != 12 {
		t.Fatalf("replayed %d records, want 12", n)
	}
}
