package wal

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// appendN appends n epochs of three logical writes each through a log
// backed by sink and returns the records as appended.
func appendN(t *testing.T, l *Log, n int, obj string) []Record {
	t.Helper()
	var out []Record
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			r := Record{Kind: LogicalWrite, Object: obj, A: int64(100 + 3*i + j), B: int64(i + 1), C: int64(j % 2)}
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			r.LSN = lsn
			out = append(out, r)
		}
	}
	return out
}

func TestFileSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	want := appendN(t, l, 5, "col")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The log streams: over a file sink it keeps nothing to read back.
	if recs := l.Records(); recs != nil || l.Len() != 15 {
		t.Fatalf("Records = %d records, Len = %d; want none kept and 15 LSNs", len(recs), l.Len())
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

	// A later incarnation logs a write into fresh segments.
	s2, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(s2).Append(Record{Kind: LogicalWrite, Object: "col", A: 7, B: 42}); err != nil {
		t.Fatal(err)
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
	// Segment 1 keeps the 8 writes before its torn frame.
	tail := cat.TailWrites["col"]
	if len(tail) != 9 || tail[8] != (TailWrite{Value: 7, Epoch: 42}) {
		t.Fatalf("TailWrites = %+v: the write behind a damaged segment was not recovered", tail)
	}
}

// TestReopenedSinkSyncsEarlierSegments checks that a sink opened over a
// crashed incarnation's segments fsyncs every one of them before it
// returns, so no write the new sink acknowledges (its Sync reaches only
// its own segment) can outlive an older record lost to power failure.
func TestReopenedSinkSyncsEarlierSegments(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileSink(dir, SinkOptions{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	appendN(t, New(s1), 6, "col") // the crashed incarnation synced nothing
	old, err := s1.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(old) < 2 {
		t.Fatalf("segments = %v, want a rotation", old)
	}

	var mu sync.Mutex
	var synced []string
	orig := fsync
	fsync = func(f *os.File) error {
		mu.Lock()
		synced = append(synced, filepath.Base(f.Name()))
		mu.Unlock()
		return orig(f)
	}
	t.Cleanup(func() { fsync = orig })

	s2, err := NewFileSink(dir, SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mu.Lock()
	before := append([]string(nil), synced...)
	mu.Unlock()
	var want []string
	for _, i := range old {
		want = append(want, segmentName(i))
	}
	if len(before) != len(want) {
		t.Fatalf("NewFileSink fsynced %v, want every earlier segment %v", before, want)
	}
	for i := range want {
		if before[i] != want[i] {
			t.Fatalf("NewFileSink fsynced %v, want every earlier segment %v", before, want)
		}
	}
	// The first acknowledged write's Sync reaches only the new segment.
	if _, err := New(s2).Append(Record{Kind: LogicalWrite, Object: "col", A: 1, B: 99}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := synced[len(synced)-1]
	mu.Unlock()
	if cur := segmentName(old[len(old)-1] + 1); last != cur {
		t.Fatalf("Sync fsynced %s, want the new segment %s", last, cur)
	}

	// A NoSync sink fsyncs nothing, earlier segments included.
	mu.Lock()
	synced = nil
	mu.Unlock()
	s3, err := NewFileSink(dir, SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s3.Close()
	if len(synced) != 0 {
		t.Fatalf("a NoSync sink fsynced %v", synced)
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

// TestLogAppendZeroAlloc is the allocation gate of a logged write: the
// record is encoded into the log's reused buffer and framed straight
// into the segment's mapping; no copy of it is kept.
func TestLogAppendZeroAlloc(t *testing.T) {
	s, err := NewFileSink(t.TempDir(), SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := New(s)
	rec := Record{Kind: LogicalWrite, Object: "sharded", B: 7}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.A++
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append(LogicalWrite) over a file sink: %v allocs/op, want 0", allocs)
	}
}

// parkNextFsync replaces the fsync seam so that the next fsync parks
// until release is called; parked is closed once it has parked.
func parkNextFsync(t *testing.T) (parked <-chan error, release func()) {
	var armed atomic.Bool
	armed.Store(true)
	p, r := make(chan error), make(chan struct{})
	release = sync.OnceFunc(func() { close(r) })
	orig := fsync
	fsync = func(f *os.File) error {
		if armed.CompareAndSwap(true, false) {
			close(p)
			<-r
		}
		return orig(f)
	}
	t.Cleanup(func() {
		release()
		fsync = orig
	})
	return p, release
}

// goErr runs f on a new goroutine and delivers its result.
func goErr(f func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	return ch
}

// await returns what ch delivers, failing the test if nothing arrives
// within ten seconds.
func await(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// stillBlocked fails the test if ch delivers within a short grace. A
// sink that waits for the parked fsync never delivers early, so the
// grace only bounds how quickly one that does not wait is caught; the
// parked fsync then also fails on its closed file.
func stillBlocked(t *testing.T, ch <-chan error, what string) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("%s returned (%v) while an fsync was parked on its segment", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestSyncBlocksNoAppend parks an fsync and checks that appends go on
// meanwhile, that a rotation and Close wait for the parked fsync
// instead of closing its segment under it, and that every record
// appended reads back.
func TestSyncBlocksNoAppend(t *testing.T) {
	dir := t.TempDir()
	const frame = frameHeaderSize + recordFixed + len("col") + recordTrailer
	s, err := NewFileSink(dir, SinkOptions{SegmentBytes: 64 * int64(frame)})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	appendK := func(k int) func() error {
		return func() error {
			for i := 0; i < k; i++ {
				if _, err := l.Append(Record{Kind: LogicalWrite, Object: "col", A: int64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// Segment 1 holds 64 records. An fsync parked on it blocks none of
	// the 48 appends that fit.
	parked, release := parkNextFsync(t)
	synced := goErr(l.Sync)
	await(t, parked, "the fsync")
	if err := await(t, goErr(appendK(48)), "appends behind a parked fsync"); err != nil {
		t.Fatal(err)
	}
	// The 65th record rotates, and the rotation waits for the parked
	// fsync before it closes segment 1.
	rotated := goErr(appendK(32))
	stillBlocked(t, rotated, "a rotation")
	release()
	if err := await(t, synced, "the parked Sync"); err != nil {
		t.Fatalf("parked Sync: %v", err)
	}
	if err := await(t, rotated, "the rotating appends"); err != nil {
		t.Fatal(err)
	}
	if segs, err := s.Segments(); err != nil || len(segs) != 2 {
		t.Fatalf("segments = %v, %v; want 2 after one rotation", segs, err)
	}

	// Close waits for a parked fsync the same way.
	parked, release = parkNextFsync(t)
	synced = goErr(l.Sync)
	await(t, parked, "the fsync")
	closed := goErr(s.Close)
	stillBlocked(t, closed, "Close")
	release()
	if err := await(t, synced, "the parked Sync"); err != nil {
		t.Fatalf("parked Sync: %v", err)
	}
	if err := await(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}

	// Every record appended before a Sync reads back, in LSN order.
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	if _, err := Replay(img, func(r Record) { lsns = append(lsns, r.LSN) }); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 80 {
		t.Fatalf("read back %d records, want 80", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, lsn, i+1)
		}
	}
}
