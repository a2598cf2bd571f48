// The durable file sink of the log.
//
// A FileSink stores the log as a sequence of segment files
// ("wal-00000001.seg", ...) in one directory. Each record written
// through the sink is framed as
//
//	[length uint32][crc32 uint32][payload]
//
// (little-endian, CRC-32/IEEE over the payload), so a reader can detect
// both a torn tail — the process died mid-write — and silent
// corruption, and stop replay exactly at the last intact frame, the
// standard log-recovery contract: a torn frame was never acknowledged
// as durable, because no Sync covering it returned. The length word's
// top bit marks a frame LogWrite made, whose payload is one compact
// record; its CRC starts from writeCRCSeed instead of zero, so a
// flipped mark fails the CRC instead of changing how the payload
// reads. Every other frame holds what Write was given.
//
// The product logs through LogWrite: one logged write is one frame of
// 11 to 29 bytes (about 15 for a small value), encoded straight into the
// segment under the sink's one lock.
//
// A segment is preallocated at SegmentBytes when it is created and
// mapped shared (MAP_SHARED), so a logged write is a copy into the
// mapping, not a system call: LogWrite and Write put the CRC and the
// payload after the segment's last record and store the length word
// last. The copy lands in the kernel's page cache, as a write(2)
// would, so a killed process loses no record whose call returned; the
// sink buffers nothing in user space. The preallocated bytes are zero,
// and a zero length word ends a segment cleanly: a process killed
// mid-copy leaves one (or a frame whose CRC fails), and every byte
// after the last record is one. Rotation and Close fsync the segment, unmap it and
// truncate it to the bytes written, so only the last segment of a
// crashed incarnation keeps a zero tail. Sync takes the current segment
// under the sink's lock and fsyncs it outside the lock, so writes
// continue while an fsync is in flight; rotation and Close wait for
// in-flight fsyncs before they retire their segment.
//
// Segments rotate once they are full, which keeps any one file small
// and — more importantly — gives checkpoint truncation a unit of
// reclamation: a checkpoint rotates first (MarkCheckpoint), so every
// record logged after that lands in a fresh segment, and once its
// snapshot is durable every earlier segment describes state the
// snapshot holds and is deleted (ReleaseBefore).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptix/internal/metrics"
)

// frameHeaderSize is the per-record framing overhead: payload length
// plus CRC-32 of the payload.
const frameHeaderSize = 4 + 4

// maxFramePayload bounds a single frame; larger lengths are treated as
// corruption during reads.
const maxFramePayload = 1 << 24

// frameWrite is the length word's mark of a frame LogWrite made; the
// bits between it and maxFramePayload stay zero.
const frameWrite = 1 << 31

// writeCRCSeed is the CRC-32 a LogWrite frame's checksum starts from.
// CRC-32 is linear, so the checksums of one payload under two seeds
// always differ: a frame whose mark flipped never reads as intact.
const writeCRCSeed = 0x57414c32

// maxWriteFrame is the room LogWrite needs in a segment.
const maxWriteFrame = frameHeaderSize + maxWriteRecord

// SinkOptions configures a FileSink.
type SinkOptions struct {
	// SegmentBytes is the size each segment is preallocated and mapped
	// at, and so the rotation threshold: a record that would grow the
	// current segment beyond it opens a new segment first (one larger
	// than SegmentBytes, if the record alone is). Default 1 MiB.
	SegmentBytes int64
	// NoSync disables fsync entirely (tests and benchmarks that
	// simulate crashes by truncating files themselves). Durability
	// guarantees obviously do not hold with NoSync set.
	NoSync bool
	// Obs, when non-nil, receives the latency of every explicit Sync —
	// the group-commit path whose tail dominates write latency (rotation- and close-time syncs are not separately
	// timed) — and the WAL-growth gauges: every framed record adds its
	// on-disk bytes to the since-last-checkpoint counters the watchdog's
	// wal-since-checkpoint rule watches (the checkpoint writer resets
	// them).
	Obs *metrics.Observer
}

func (o SinkOptions) withDefaults() SinkOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// FileSink is a durable segment-file sink. The product's logged writes
// go through LogWrite; it also implements io.Writer (one Write call
// per encoded record — exactly how Log.Append uses its sink) and
// Syncer, so a Log over a FileSink streams into it and Log.Sync fsyncs
// the current segment. Safe for concurrent use.
type FileSink struct {
	dir  string
	opts SinkOptions

	mu       sync.Mutex
	f        *os.File
	m        []byte // f's shared mapping, len(m) bytes preallocated
	seg      int    // index of the open segment
	size     int64  // bytes written to the open segment
	closed   bool
	inflight sync.WaitGroup // Syncs fsyncing f outside mu; Add under mu
}

// fsync forces a segment to stable storage. In-package tests replace it
// to park an fsync.
var fsync = (*os.File).Sync

// preallocate reserves a new segment's bytes on disk before it is
// mapped, so a copy into the mapping never meets a full disk. In-package
// tests replace it to fail a rotation.
var preallocate = reserve

// syncDir fsyncs a directory, making the creation or removal of a
// segment in it durable. In-package tests replace it to fail a
// rotation.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Syncer is implemented by sinks that can flush written records to
// stable storage. Log.Sync calls it when its sink implements it.
type Syncer interface {
	Sync() error
}

// SegmentTruncator is implemented by sinks that support checkpoint
// truncation of the dead log prefix. The checkpoint writer
// (internal/ingest) calls MarkCheckpoint before it cuts the snapshot's
// epoch watermark and ReleaseBefore once the snapshot is durable.
type SegmentTruncator interface {
	// MarkCheckpoint rotates to a fresh segment and returns its index;
	// records written afterwards land in that segment or later ones.
	MarkCheckpoint() (int, error)
	// ReleaseBefore deletes every segment with an index smaller than
	// seg. Safe to call only once a snapshot cut after the rotation to
	// seg is durable.
	ReleaseBefore(seg int) error
}

// NewFileSink opens a sink over dir, creating the directory if needed.
// Existing segments are never appended to (their tail may be torn from
// a previous crash); writing starts in a fresh segment after the
// highest existing index. Existing segments are fsynced first (unless
// NoSync), for the reason rotation fsyncs its outgoing segment: a
// group-commit Sync reaches only the current segment, and a process
// that crashed may have left an earlier one's records in the page
// cache, where a power failure would lose them behind newer, synced
// ones.
func NewFileSink(dir string, opts SinkOptions) (*FileSink, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: sink: %w", err)
	}
	segs, err := segmentIndexes(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	if !opts.NoSync {
		for _, i := range segs {
			if err := syncFile(filepath.Join(dir, segmentName(i))); err != nil {
				return nil, err
			}
		}
	}
	s := &FileSink{dir: dir, opts: opts}
	if err := s.openSegment(next, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the sink's directory.
func (s *FileSink) Dir() string { return s.dir }

// segmentName formats the file name of segment i.
func segmentName(i int) string { return fmt.Sprintf("wal-%08d.seg", i) }

// segmentIndexes lists the indexes of the segment files in dir, sorted
// ascending. A missing directory yields an empty list.
func segmentIndexes(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: sink: %w", err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(name, "wal-%08d.seg", &i); err == nil {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out, nil
}

// openSegment creates segment i, preallocated and mapped at
// SegmentBytes (or at need, if larger), and makes it current. The
// outgoing segment is synced first, once every Sync in flight on it has
// returned: a group-commit Sync reaches only the current segment, so
// without this the records written before a rotation could be lost to
// power failure although a later Sync reported them durable. The
// directory is synced next, so the new segment's existence is durable
// before any write is acknowledged into it. A new segment that cannot
// be reserved, mapped or made durable is removed again, and the
// outgoing one stays current; otherwise the outgoing one is unmapped
// and truncated to the bytes written. Caller must hold s.mu (or be the
// constructor).
func (s *FileSink) openSegment(i int, need int64) error {
	if s.f != nil {
		s.inflight.Wait()
		if err := s.flush(s.f, s.m); err != nil {
			return fmt.Errorf("wal: sink: %w", err)
		}
	}
	path := filepath.Join(s.dir, segmentName(i))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: sink: %w", err)
	}
	size := max(s.opts.SegmentBytes, need)
	var m []byte
	if err = preallocate(f, size); err == nil {
		m, err = mapShared(f, size)
		if err == nil && !s.opts.NoSync {
			if err = syncDir(s.dir); err != nil {
				unmap(m)
			}
		}
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: sink: %w", err)
	}
	if s.f != nil {
		// The outgoing segment is durable: a failure to trim it leaves a
		// zero tail, which reads as its end.
		err = s.trim()
	}
	s.f, s.m, s.seg, s.size = f, m, i, 0
	if err != nil {
		return fmt.Errorf("wal: sink: %w", err)
	}
	return nil
}

// flush forces f, mapped at m, to stable storage (a no-op under
// NoSync).
func (s *FileSink) flush(f *os.File, m []byte) error {
	if s.opts.NoSync {
		return nil
	}
	if err := flushView(m); err != nil {
		return err
	}
	return fsync(f)
}

// trim unmaps the current segment, truncates it to the bytes written
// and closes it.
func (s *FileSink) trim() error {
	err := unmap(s.m)
	if terr := s.f.Truncate(s.size); err == nil {
		err = terr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.m = nil, nil
	return err
}

// syncFile fsyncs the file at path.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: sink: %w", err)
	}
	defer f.Close()
	if err := fsync(f); err != nil {
		return fmt.Errorf("wal: sink: %w", err)
	}
	return nil
}

// Write frames one encoded record and copies it into the current
// segment's mapping, rotating first when the segment is full: the CRC
// and payload go in first and the length word last, so a process killed
// mid-copy leaves a zero length word (or a frame whose CRC fails), and
// either ends the segment at the last whole record. A failed rotation
// writes nothing. An empty p writes no frame (its zero length word would
// read as the segment's end). Implements io.Writer for Log.
func (s *FileSink) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(p) > maxFramePayload {
		return 0, fmt.Errorf("wal: sink: record of %d bytes exceeds the %d-byte frame limit", len(p), maxFramePayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("wal: sink: closed")
	}
	frame := int64(frameHeaderSize + len(p))
	if s.size+frame > int64(len(s.m)) {
		if err := s.openSegment(s.seg+1, frame); err != nil {
			return 0, err
		}
	}
	putFrame(s.m[s.size:s.size+frame], p)
	s.size += frame
	s.opts.Obs.AddWALSince(frame, 1)
	return len(p), nil
}

// putFrame frames p into b, which holds exactly the frame: the CRC and
// the payload first, the length word last.
func putFrame(b, p []byte) {
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(p))
	copy(b[frameHeaderSize:], p)
	binary.LittleEndian.PutUint32(b, uint32(len(p)))
}

// LogWrite logs one write of the column's data tail: v inserted, or
// deleted when del is set, in epoch (>= 0). The compact record is
// encoded straight into the current segment's mapping under the sink's
// lock — CRC and payload first, the length word last, as Write frames —
// rotating first when fewer than maxWriteFrame bytes are left. It
// allocates nothing and does not fsync: the write is durable once a
// later Sync returns. A failed rotation writes nothing.
func (s *FileSink) LogWrite(v, epoch int64, del bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: sink: closed")
	}
	if s.size+maxWriteFrame > int64(len(s.m)) {
		if err := s.openSegment(s.seg+1, maxWriteFrame); err != nil {
			return err
		}
	}
	frame := int64(putWriteFrame(s.m[s.size:], v, epoch, del))
	s.size += frame
	s.opts.Obs.AddWALSince(frame, 1)
	return nil
}

// putWriteFrame frames the compact record of a write at the front of b,
// which has room for maxWriteFrame bytes, and returns the frame's
// length: the CRC and the payload first, the length word — with its
// frameWrite mark — last.
func putWriteFrame(b []byte, v, epoch int64, del bool) int {
	p := appendWrite(b[frameHeaderSize:frameHeaderSize], v, epoch, del)
	binary.LittleEndian.PutUint32(b[4:], crc32.Update(writeCRCSeed, crc32.IEEETable, p))
	binary.LittleEndian.PutUint32(b, uint32(len(p))|frameWrite)
	return frameHeaderSize + len(p)
}

// Sync flushes the current segment to stable storage (a no-op under
// NoSync). Every frame whose Write returned before Sync was called is
// durable when it returns: the fsync of the segment holding it, or, if
// that segment rotated away meanwhile, the rotation's own fsync, covers
// it. The fsync runs outside s.mu, so concurrent Writes are not held up
// by it.
func (s *FileSink) Sync() error {
	if s.opts.NoSync {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	f, m := s.f, s.m
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	t0 := time.Now()
	if err := s.flush(f, m); err != nil {
		return fmt.Errorf("wal: sink: %w", err)
	}
	s.opts.Obs.RecordFsync(time.Since(t0))
	return nil
}

// MarkCheckpoint rotates to a fresh segment and returns its index (see
// SegmentTruncator).
func (s *FileSink) MarkCheckpoint() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("wal: sink: closed")
	}
	if s.size == 0 {
		return s.seg, nil
	}
	if err := s.openSegment(s.seg+1, 0); err != nil {
		return 0, err
	}
	return s.seg, nil
}

// ReleaseBefore deletes every segment with an index smaller than seg
// (see SegmentTruncator).
func (s *FileSink) ReleaseBefore(seg int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := segmentIndexes(s.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, i := range segs {
		if i >= seg || i == s.seg {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, segmentName(i))); err != nil {
			return fmt.Errorf("wal: sink: %w", err)
		}
		removed = true
	}
	if removed && !s.opts.NoSync {
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("wal: sink: %w", err)
		}
	}
	return nil
}

// Segments returns the indexes of the segment files currently on disk,
// ascending.
func (s *FileSink) Segments() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return segmentIndexes(s.dir)
}

// Close waits for in-flight Syncs, then syncs the current segment,
// unmaps it, truncates it to the bytes written and closes it. Further
// writes fail.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.inflight.Wait()
	err := s.flush(s.f, s.m)
	if terr := s.trim(); err == nil {
		err = terr
	}
	if err != nil {
		return fmt.Errorf("wal: sink: %w", err)
	}
	return nil
}

// ReadDir reads the framed segments in dir in index order and returns
// their log image — imageMagic, then one entry per intact frame (see
// appendEntry) — which Recover and Replay consume. A torn or corrupt
// frame in the NEWEST segment is the normal crashed tail and ends the
// image there. Damage in an older segment — a torn pre-crash tail whose
// segment outlived a failed truncation, or bit rot — drops only the
// rest of that segment: reading resumes at the next segment boundary,
// where frames re-align. That is safe for Recover because every record
// stands alone (no record refers to another), and the caller replays a
// logical write by its epoch tag, not by its position. A directory
// without a frame yields nil.
func ReadDir(dir string) ([]byte, error) {
	segs, err := segmentIndexes(dir)
	if err != nil {
		return nil, err
	}
	out := []byte(imageMagic)
	for k, i := range segs {
		raw, err := os.ReadFile(filepath.Join(dir, segmentName(i)))
		if err != nil {
			return nil, fmt.Errorf("wal: sink: %w", err)
		}
		var intact bool
		out, intact = deframe(out, raw)
		if !intact && k == len(segs)-1 {
			break // crashed tail of the newest segment
		}
	}
	if len(out) == len(imageMagic) {
		return nil, nil
	}
	return out, nil
}

// deframe appends to dst the image entries of the intact frames at the
// front of raw, reporting whether the whole buffer was consumed
// cleanly. A zero length word ends the buffer cleanly: it is the
// unwritten, zero tail of a preallocated segment (no frame has an empty
// payload).
func deframe(dst, raw []byte) (img []byte, intact bool) {
	for len(raw) > 0 {
		if zeroWord(raw) {
			return dst, true
		}
		if len(raw) < frameHeaderSize {
			return dst, false
		}
		word := binary.LittleEndian.Uint32(raw[0:])
		sum := binary.LittleEndian.Uint32(raw[4:])
		n, compact := word&^frameWrite, word&frameWrite != 0
		if n == 0 || n > maxFramePayload || len(raw) < frameHeaderSize+int(n) {
			return dst, false
		}
		payload := raw[frameHeaderSize : frameHeaderSize+int(n)]
		var seed uint32
		if compact {
			seed = writeCRCSeed
		}
		if crc32.Update(seed, crc32.IEEETable, payload) != sum {
			return dst, false
		}
		dst = appendEntry(dst, compact, payload)
		raw = raw[frameHeaderSize+int(n):]
	}
	return dst, true
}

// zeroWord reports whether raw starts with a zero length word; a
// remainder shorter than a word counts as zero-padded.
func zeroWord(raw []byte) bool {
	for _, b := range raw[:min(len(raw), 4)] {
		if b != 0 {
			return false
		}
	}
	return true
}

// Interface checks.
var (
	_ io.Writer        = (*FileSink)(nil)
	_ Syncer           = (*FileSink)(nil)
	_ SegmentTruncator = (*FileSink)(nil)
)
