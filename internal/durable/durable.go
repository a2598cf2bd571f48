// Package durable is the crash-recoverable persistence layer over the
// sharded adaptive index: a directory-backed store that survives
// process death with its refinement knowledge intact.
//
// The paper (§4.2) separates index structure from index contents:
// structure is re-creatable knowledge, so the *effect* of every
// structural change can be captured at a checkpoint instead of being
// logged and re-derived one by one, and only contents need a log. This
// package does exactly that. A store directory holds
//
//   - base.snap — the checkpoint: the column's image at an epoch
//     watermark W (shard.Column.ImageAt) — the shard cuts and, per shard,
//     the array in piece order with its seed table (value, position,
//     prefix sum). It is written to a temp file, fsynced, renamed over
//     the previous one and made durable by a directory fsync; the rename
//     is the commit;
//   - wal-*.seg — CRC-framed log segments, preallocated and mapped
//     (wal.FileSink; an open or crashed one ends in zeros): with
//     LogWrites, one compact record per logical write — value, op and
//     epoch, about 15 bytes framed — fsynced in groups. Group-applies,
//     splits and merges write nothing.
//
// The ingest coordinator checkpoints periodically (ingest.Checkpoint):
// it rotates the sink, seals every open epoch at W, captures the image,
// writes base.snap, and only then deletes the segments before the
// rotation. Open reads the snapshot, adopts it (shard.Restore: one
// crackindex.NewOwned per shard — no sample, no build, no crack), and
// replays the logical writes tagged above the snapshot's W. It writes no
// snapshot of its own: the one it read stays the checkpoint, and the
// replayed tail's segments stay until the next checkpoint releases them
// (replayed writes are not logged again, and W keeps a second reopen
// from applying the first tail twice). A restarted store therefore has
// exactly the pieces it checkpointed, and its first query pays
// steady-state cost.
//
// Durability unit: the snapshot. Structure — shard cuts and pieces — is
// durable as of the last snapshot; splits and merges after it are
// re-derived by the rebalancer (structure is re-creatable, §4.2), and
// refinement after it is re-earned by queries. Data is durable as of the
// last snapshot too (Close always takes a final one, so a clean shutdown
// loses nothing), and with LogWrites as of the last fsync of the log:
// the image and the records above its watermark partition the write
// history without gap or overlap, whatever point a crash hits.
//
// A store directory must be owned by one process at a time; no lock
// file is taken.
package durable

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/wal"
)

// Options configures Open.
type Options struct {
	// Values is the column's initial contents when the directory holds
	// no snapshot yet (a fresh store, or one that crashed before its
	// first checkpoint completed). Once a snapshot exists it wins and
	// Values is ignored.
	Values []int64
	// Shard configures the sharded column (shard count, workers,
	// per-shard index options, ...).
	Shard shard.Options
	// Ingest configures the write-path coordinator (thresholds,
	// rebalancing factors). Log, Sink, SnapshotWriter and
	// CheckpointEvery are owned by the store and overwritten.
	Ingest ingest.Options
	// SegmentBytes is the WAL segment size: each segment is
	// preallocated and mapped at it, and rotates once full. Default
	// 1 MiB.
	SegmentBytes int64
	// CheckpointEvery is the number of structural operations between
	// automatic checkpoints. Default 8.
	CheckpointEvery int
	// LogWrites enables data-tail durability: the coordinator gets the
	// store's log (ingest Options.Log), so routed writes are logged as
	// logical records and replayed past the snapshot's epoch watermark
	// on reopen, and a crash loses at most the not-yet-fsynced log tail
	// instead of everything since the last checkpoint.
	LogWrites bool
	// SyncEvery bounds the not-yet-fsynced tail by record count: with
	// LogWrites, the log is group-commit fsynced after every SyncEvery
	// logical records (see ingest Options.SyncEvery). Zero defaults to
	// the ingest ApplyThreshold.
	SyncEvery int
	// SyncInterval bounds the tail in time: unsynced logical records
	// are fsynced at least every SyncInterval (see ingest
	// Options.SyncInterval). Zero disables the ticker.
	SyncInterval time.Duration
	// NoSync disables fsync on the WAL and the snapshot (tests). A
	// store written with NoSync is not crash-durable.
	NoSync bool
}

// Column is a durable sharded adaptive index: a shard.Column plus its
// ingest.Coordinator, wired to a file-backed WAL and checkpoint
// snapshots in one directory. Reads go straight to the column; writes
// route through the coordinator. Safe for concurrent use.
type Column struct {
	dir       string
	col       *shard.Column
	ing       *ingest.Coordinator
	sink      *wal.FileSink
	recovered bool
	recovery  RecoveryBreakdown
	closed    atomic.Bool
}

// RecoveryBreakdown is the wall-clock cost of the three Open phases:
// loading and validating the snapshot, scanning the WAL, and rebuilding
// the column (adopting the snapshot plus replaying the logged data
// tail). Open also publishes the three durations as observer gauges
// (adaptix_recovery_*_ns), so the cost of the last recovery is
// scrapeable at /metrics.
type RecoveryBreakdown struct {
	// CheckpointLoad is the time spent reading and validating base.snap.
	CheckpointLoad time.Duration
	// WALScan is the time spent reading the log segments and folding
	// them into the recovery catalog.
	WALScan time.Duration
	// Replay is the time spent rebuilding the column: shard.Restore
	// adopting the snapshot's arrays and seed tables (one
	// crackindex.NewOwned per shard, no partition pass), then the logged
	// writes above the snapshot's watermark. A fresh store spends it on
	// shard.New instead.
	Replay time.Duration
}

// Seams the in-package crash tests replace to stop or fail a checkpoint
// at a chosen step; the store itself never changes them.
var (
	// snapshotWriter writes a checkpoint's image into dir.
	snapshotWriter = writeSnapshot
	// truncator is the WAL sink as the checkpoint writer sees it.
	truncator = func(s *wal.FileSink) wal.SegmentTruncator { return s }
	// syncDir makes a rename in dir durable.
	syncDir = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
)

// Open opens the store in dir, creating it (with opts.Values as
// initial contents) when no snapshot exists, or restoring it from the
// snapshot and the log tail past the snapshot's watermark when one does.
// The returned column has background maintenance started. A fresh store
// takes its initial checkpoint before Open returns, so it is durable
// immediately; a restored one already is, and keeps its snapshot.
func Open(dir string, opts Options) (*Column, error) {
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var bd RecoveryBreakdown
	t0 := time.Now()
	img, recovered, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	bd.CheckpointLoad = time.Since(t0)
	var col *shard.Column
	if recovered {
		t0 = time.Now()
		raw, err := wal.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		cat, err := wal.Recover(raw)
		if err != nil {
			return nil, fmt.Errorf("durable: recover: %w", err)
		}
		bd.WALScan = time.Since(t0)
		t0 = time.Now()
		// The snapshot holds every write of an epoch <= its watermark W;
		// the log's records above it are the tail. Epoch ids stay
		// monotonic across incarnations: the restored column resumes at
		// max(W, highest tail tag), so the segments it keeps — the
		// replayed tail's, or stale ones a failed release left behind —
		// can never alias into the new incarnation's epochs. The store
		// logs one column, so every logical write in the log is its own,
		// in either record format.
		var tail []wal.TailWrite
		w := img.Epoch
		for _, tw := range cat.Writes {
			if tw.Epoch > w {
				tail = append(tail, tw)
			}
			img.Epoch = max(img.Epoch, tw.Epoch)
		}
		col = shard.Restore(img, opts.Shard)
		replayTail(col, tail)
	} else {
		t0 = time.Now()
		col = shard.New(opts.Values, opts.Shard)
		if err := col.CheckKeys(); err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
	}
	bd.Replay = time.Since(t0)
	opts.Shard.Obs.RecordRecovery(bd.CheckpointLoad, bd.WALScan, bd.Replay)

	// NewFileSink fsyncs the segments it finds, the replayed tail's
	// among them: Open takes no checkpoint over that tail, so it must be
	// as durable as the writes acknowledged after it.
	sink, err := wal.NewFileSink(dir, wal.SinkOptions{
		SegmentBytes: opts.SegmentBytes,
		NoSync:       opts.NoSync,
		// One observer spans the store: the column's (Options.Shard.Obs)
		// also times the sink's fsyncs and the coordinator's writes.
		Obs: opts.Shard.Obs,
	})
	if err != nil {
		return nil, err
	}
	if !recovered {
		// No snapshot: no Open ever returned for this directory, so no
		// write was acknowledged, and whatever segments it holds are
		// ignored. Delete them — every one but the sink's fresh segment —
		// before the first snapshot could make them read as its tail.
		if err := sink.ReleaseBefore(math.MaxInt); err != nil {
			sink.Close()
			return nil, err
		}
	}
	iopts := opts.Ingest
	if iopts.Obs == nil {
		iopts.Obs = opts.Shard.Obs
	}
	// The sink stays open without LogWrites too: checkpoints release the
	// segments an earlier incarnation with logged writes left behind.
	iopts.Log = nil
	if opts.LogWrites {
		iopts.Log = sink
	}
	iopts.Sink = truncator(sink)
	iopts.CheckpointEvery = opts.CheckpointEvery
	if opts.SyncEvery > 0 {
		iopts.SyncEvery = opts.SyncEvery
	}
	if opts.SyncInterval > 0 {
		iopts.SyncInterval = opts.SyncInterval
	}
	iopts.SnapshotWriter = func(img shard.Image) error {
		return snapshotWriter(dir, img, !opts.NoSync)
	}
	ing := ingest.New(col, iopts)
	c := &Column{dir: dir, col: col, ing: ing, sink: sink, recovered: recovered, recovery: bd}
	// A fresh store checkpoints immediately, so its column is durable
	// before any write is acknowledged. A restored one already has its
	// snapshot: rewriting it would only copy what was just read.
	if !recovered && !ing.Checkpoint() {
		sink.Close()
		return nil, errors.New("durable: initial checkpoint failed")
	}
	ing.Start()
	return c, nil
}

// Dir returns the store directory.
func (c *Column) Dir() string { return c.dir }

// Recovered reports whether Open found an existing store — a durable
// snapshot — in the directory (as opposed to creating a fresh one from
// Options.Values).
func (c *Column) Recovered() bool { return c.recovered }

// Recovery returns the wall-clock breakdown of the Open that produced
// this column (all zeros never occur: even a fresh store pays the
// three phases, if only to find them empty).
func (c *Column) Recovery() RecoveryBreakdown { return c.recovery }

// Column returns the underlying sharded column (the read surface;
// useful for Snapshot, Validate, or wrapping in an Engine).
func (c *Column) Column() *shard.Column { return c.col }

// Ingestor returns the underlying write-path coordinator (stats,
// manual Maintain).
func (c *Column) Ingestor() *ingest.Coordinator { return c.ing }

// Count evaluates Q1: select count(*) where lo <= A < hi.
func (c *Column) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return c.col.Count(ctx, lo, hi)
}

// Sum evaluates Q2: select sum(A) where lo <= A < hi.
func (c *Column) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return c.col.Sum(ctx, lo, hi)
}

// Insert routes one insert through the coordinator.
func (c *Column) Insert(ctx context.Context, v int64) error { return c.ing.Insert(ctx, v) }

// DeleteValue routes one delete, reporting whether an instance existed.
func (c *Column) DeleteValue(ctx context.Context, v int64) (bool, error) {
	return c.ing.DeleteValue(ctx, v)
}

// Apply routes a batch of write operations (see ingest.Coordinator.Apply).
func (c *Column) Apply(ctx context.Context, batch []ingest.Op) (int, error) {
	return c.ing.Apply(ctx, batch)
}

// Checkpoint forces a checkpoint now: the column's image written to
// base.snap, then the log prefix it supersedes released. Everything up
// to this call is durable once it returns true.
func (c *Column) Checkpoint() bool { return c.ing.Checkpoint() }

// Close stops background maintenance, takes a final checkpoint, and
// closes the log. A cleanly closed store reopens with zero loss.
// Idempotent and safe for concurrent use (exactly one caller runs the
// shutdown; the others return nil immediately).
func (c *Column) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.ing.Close() // final maintain + checkpoint
	return c.sink.Close()
}

// replayTail re-applies the recovered data tail (Options.LogWrites):
// the snapshot holds the contents up to its epoch watermark; the
// logical records beyond it re-apply in log order, straight into the
// column — not through the coordinator, so they are not logged again.
// Without logged writes the tail is simply absent, which is the paper's
// model (the base table has its own log) and never affects the
// correctness of what remains.
//
// Autonomous logical records can land in the log slightly out of
// order relative to the in-memory interleaving (the routed write and
// its record are not appended atomically), so a delete's record may
// precede the record of the very insert whose instance it observed.
// A delete that finds nothing to cancel is therefore paired with a
// later insert of the same value when one exists in the tail — both
// are skipped, reconstructing the pre-crash net effect — and only
// dropped outright (the lost-witness case: the insert's record never
// became durable) when no such insert follows.
func replayTail(col *shard.Column, tail []wal.TailWrite) {
	remainingIns := map[int64]int{}
	for _, tw := range tail {
		if !tw.Delete {
			remainingIns[tw.Value]++
		}
	}
	debt := map[int64]int{}
	for _, tw := range tail {
		if tw.Delete {
			// Debt is capped by the inserts actually still ahead, so
			// every debt is consumed and a delete beyond that cap is
			// dropped as witness-less.
			if deleted, _ := col.DeleteValue(context.Background(), tw.Value); !deleted && debt[tw.Value] < remainingIns[tw.Value] {
				debt[tw.Value]++
			}
			continue
		}
		remainingIns[tw.Value]--
		if debt[tw.Value] > 0 {
			debt[tw.Value]--
			continue
		}
		_ = col.Insert(context.Background(), tw.Value)
	}
}

// The snapshot file, every integer little-endian:
//
//	magic  "ADXSNAP2"
//	epoch  int64                    the image's watermark W
//	shards uint64                   P >= 1
//	cuts   (P-1) x int64            strictly increasing
//	P x {  rows uint64, seeds uint64,
//	       rows x int64             the shard's array in piece order
//	       seeds x {value int64, pos uint64, sum int64} }
//	crc    uint32                   CRC-32 (IEEE) of every byte before it
//
// One self-validating file, replaced atomically.
const snapMagic = "ADXSNAP2"

// ErrOldSnapshot reports a base.snap in the earlier format ("ADXSNAP1"),
// which stored the column's values without its shard map or pieces.
// Such a store cannot be opened; rebuild it from its values.
var ErrOldSnapshot = errors.New("durable: snapshot: ADXSNAP1 format (values only) is not supported")

func snapPath(dir string) string { return filepath.Join(dir, "base.snap") }

// writeSnapshot atomically replaces the store's snapshot with img: a
// temp file written through a buffer with a running CRC, fsynced,
// renamed over base.snap, and the rename made durable by fsyncing the
// directory. The rename is the commit; an error at any step — the
// directory fsync included — fails the checkpoint, so the segments an
// un-durable rename would still need are kept.
func writeSnapshot(dir string, img shard.Image, sync bool) error {
	tmpPath := snapPath(dir) + ".tmp"
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	w := snapWriter{w: bufio.NewWriterSize(f, 1<<16)}
	w.encode(img)
	err = w.finish()
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, snapPath(dir))
	}
	if err == nil && sync {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	return nil
}

// snapWriter encodes a snapshot into a buffered writer, keeping the CRC
// of everything written. The first error sticks.
type snapWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func (s *snapWriter) write(b []byte) {
	if s.err == nil {
		s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
		_, s.err = s.w.Write(b)
	}
}

func (s *snapWriter) u64(v uint64) {
	s.write(binary.LittleEndian.AppendUint64(s.w.AvailableBuffer(), v))
}

// ints encodes vs straight into the writer's free buffer space, so the
// image is never copied into a second byte slice of its size.
func (s *snapWriter) ints(vs []int64) {
	for len(vs) > 0 && s.err == nil {
		n := min(len(vs), s.w.Available()/8)
		if n == 0 {
			s.err = s.w.Flush()
			continue
		}
		b := s.w.AvailableBuffer()[:8*n]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		s.write(b)
		vs = vs[n:]
	}
}

func (s *snapWriter) encode(img shard.Image) {
	s.write([]byte(snapMagic))
	s.u64(uint64(img.Epoch))
	s.u64(uint64(len(img.Shards)))
	s.ints(img.Bounds)
	for _, sh := range img.Shards {
		s.u64(uint64(len(sh.Values)))
		s.u64(uint64(len(sh.Seeds)))
		s.ints(sh.Values)
		for _, b := range sh.Seeds {
			s.u64(uint64(b.Value))
			s.u64(uint64(b.Pos))
			s.u64(uint64(b.Sum))
		}
	}
}

// finish appends the CRC and flushes.
func (s *snapWriter) finish() error {
	if s.err == nil {
		_, s.err = s.w.Write(binary.LittleEndian.AppendUint32(nil, s.crc))
	}
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// readSnapshot loads and validates the store's snapshot; ok is false
// when none exists yet.
func readSnapshot(dir string) (img shard.Image, ok bool, err error) {
	f, err := os.Open(snapPath(dir))
	if os.IsNotExist(err) {
		return shard.Image{}, false, nil
	}
	if err != nil {
		return shard.Image{}, false, fmt.Errorf("durable: snapshot: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return shard.Image{}, false, fmt.Errorf("durable: snapshot: %w", err)
	}
	img, err = decodeSnapshot(bufio.NewReaderSize(f, 1<<16), st.Size())
	return img, err == nil, err
}

// Snapshot decoding errors.
var (
	errSnapshotShape    = errors.New("durable: snapshot: malformed")
	errSnapshotChecksum = errors.New("durable: snapshot: checksum mismatch")
	errSnapshotLength   = errors.New("durable: snapshot: length mismatch")
)

// decodeSnapshot decodes a snapshot of size bytes from r. The file is
// outside input: every declared count is checked against the bytes left
// before anything is allocated for it; cuts and seed values must be
// strictly increasing and seed positions non-decreasing and inside their
// shard (what shard.Restore relies on); and the CRC must match, with no
// byte after it.
func decodeSnapshot(r io.Reader, size int64) (shard.Image, error) {
	d := snapReader{r: r, left: size}
	magic := string(d.read(len(snapMagic)))
	if magic == "ADXSNAP1" {
		return shard.Image{}, ErrOldSnapshot
	}
	if magic != snapMagic {
		return shard.Image{}, errors.New("durable: snapshot: bad header")
	}
	var img shard.Image
	img.Epoch = int64(d.u64())
	// Every shard takes a 16-byte header and all but one an 8-byte cut.
	if p := d.u64(); p == 0 || p > uint64(d.avail()+8)/24 {
		d.fail(errSnapshotShape)
	} else {
		img.Bounds = make([]int64, p-1)
		img.Shards = make([]shard.ShardImage, p)
	}
	d.ints(img.Bounds)
	for i := 1; i < len(img.Bounds); i++ {
		if img.Bounds[i] <= img.Bounds[i-1] {
			d.fail(errSnapshotShape)
		}
	}
	for i := range img.Shards {
		rows, seeds := d.u64(), d.u64()
		if n := uint64(d.avail()); rows > n/8 || seeds > (n-8*rows)/24 {
			d.fail(errSnapshotShape)
		}
		if d.err != nil {
			break
		}
		sh := shard.ShardImage{Values: make([]int64, rows), Seeds: make([]crackindex.BoundaryPosition, seeds)}
		d.ints(sh.Values)
		prev := crackindex.BoundaryPosition{Value: math.MinInt64}
		for j := range sh.Seeds {
			b := crackindex.BoundaryPosition{Value: int64(d.u64()), Pos: int(d.u64()), Sum: int64(d.u64())}
			if b.Value <= prev.Value || b.Value == math.MaxInt64 || b.Pos < prev.Pos || uint64(b.Pos) > rows {
				d.fail(errSnapshotShape)
			}
			sh.Seeds[j], prev = b, b
		}
		img.Shards[i] = sh
	}
	want := d.crc
	if tail := d.read(4); tail != nil && binary.LittleEndian.Uint32(tail) != want {
		d.fail(errSnapshotChecksum)
	}
	if errors.Is(d.err, io.ErrUnexpectedEOF) || (d.err == nil && d.left != 0) {
		d.err = errSnapshotLength
	}
	if d.err != nil {
		return shard.Image{}, d.err
	}
	return img, nil
}

// snapReader reads a snapshot stream in small chunks, folding every
// byte into a running CRC and counting the bytes still unread. After the
// first error it reads nothing more and returns zeros.
type snapReader struct {
	r    io.Reader
	left int64 // bytes not yet read, the trailing CRC included
	crc  uint32
	err  error
	buf  [4 << 10]byte
}

func (d *snapReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// avail is the number of bytes left before the trailing CRC.
func (d *snapReader) avail() int64 { return max(d.left-4, 0) }

// read returns the next n <= len(buf) bytes, or nil once reading failed.
func (d *snapReader) read(n int) []byte {
	if d.err != nil {
		return nil
	}
	if int64(n) > d.left {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	d.left -= int64(n)
	d.crc = crc32.Update(d.crc, crc32.IEEETable, b)
	return b
}

func (d *snapReader) u64() uint64 {
	if b := d.read(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *snapReader) ints(dst []int64) {
	for len(dst) > 0 {
		n := min(len(dst), len(d.buf)/8)
		b := d.read(8 * n)
		if b == nil {
			return
		}
		for i := range dst[:n] {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		dst = dst[n:]
	}
}
