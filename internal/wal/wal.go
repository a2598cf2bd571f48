// Package wal implements the write-ahead log: a stream of small
// records into a sink.
//
// The paper (§4.2) observes that a significant advantage of building
// adaptive indexes over proven index structures is that "index
// creation and reorganization don't require logging detailed index
// contents": structure is re-creatable knowledge derived from the
// data, so only the contents must survive a crash. The log follows
// that split. What it carries for the sharded column is data — one
// record per routed write, tagged with its epoch — and nothing
// about structure: a group-apply, split or merge writes no record,
// because a checkpoint's snapshot captures the structure whole and
// everything after it is re-derived by the rebalancer and re-earned by
// queries. The adaptive-merging reproduction (internal/amerge) still
// logs its run creations and merge steps, the paper's §3 structural
// records.
//
// A logged write of the product (FileSink.LogWrite, what the ingest
// coordinator calls) is a compact, data-only record — a format byte,
// the value as a zig-zag varint and epoch<<1|op as a uvarint, 3 to 21
// bytes — framed straight into the sink's segment under the sink's one
// lock. A store logs one column, so the record carries no name, no LSN
// and no transaction. Everything else — adaptive merging's records, and
// the logical writes of logs written before the compact format —
// is a Record: a fixed little-endian layout (LSN, Txn, kind, object
// name, three int64s) closed by an XOR checksum byte, appended through
// a Log. The XOR byte is legacy: the file sink's CRC frame already
// protects every record. Replay and Recover stop at the first corrupt
// or truncated record, mimicking standard log-recovery behaviour.
//
// A Log is a stream, not a store: it keeps no record it has appended.
// Each record is encoded into a reused buffer and handed to the sink
// before Append returns, so what a Log retains is exactly what its sink
// retains — nothing for the file sink, the encoded bytes for the
// in-memory log New(nil) builds.
//
// Durability is provided by the file sink (sink.go): CRC-framed
// records in rotating segment files, each frame marked with the format
// it holds. Neither LogWrite nor Append fsyncs; the writer decides when
// (Sync — the ingest coordinator's group commit), and an fsync runs
// outside the sink's lock, so writers keep logging while it is in
// flight. The log holds no checkpoint: a checkpoint is a data snapshot
// written outside it (internal/durable's base.snap, which carries the
// shard map and every shard's pieces). The checkpoint writer rotates
// the sink before it cuts the snapshot's epoch watermark and deletes
// the segments before the rotation once the snapshot is durable
// (SegmentTruncator); what the log then contributes to recovery is the
// logical-write tail (Recover: every logical write in either format,
// which the caller filters by the snapshot's watermark).
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Kind identifies what a record describes.
type Kind uint8

// Values 1–3 and 6–11 stay reserved. 6 was never taken; 1–3 and 7–11
// are the structural kinds that logs written before structure left the
// log hold (1 BeginSystem, 2 CommitSystem, 3 CrackBoundary,
// 7 ShardInsert, 8 ShardSplit, 9 ShardMerge, 10 EpochSeal,
// 11 EpochApply). They still decode, print as Kind(n), and Recover
// skips them.
const (
	// RunCreated records that a sorted run (partition) was created.
	RunCreated Kind = 4
	// MergeStep records that a key range moved from source partitions
	// into the final partition.
	MergeStep Kind = 5
	// LogicalWrite records one routed update — value plus operation —
	// tagged with the epoch it landed in: the Record form of a logged
	// write, as logs written before the compact format (LogWrite) hold
	// it, and as Replay reports a compact record. Recovery replays the
	// writes tagged above the snapshot's epoch watermark, closing the
	// lose-writes-since-last-checkpoint window.
	LogicalWrite Kind = 12
)

// String returns the kind's log-friendly name.
func (k Kind) String() string {
	switch k {
	case RunCreated:
		return "run-created"
	case MergeStep:
		return "merge-step"
	case LogicalWrite:
		return "logical-write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one log record. The three int64 payload fields are
// interpreted per kind:
//
//	RunCreated:    A = partition id, B = record count
//	MergeStep:     A = low key, B = high key, C = records moved
//	LogicalWrite:  A = value, B = epoch id, C = op (0 insert, 1 delete)
type Record struct {
	// LSN is the log sequence number, assigned by Append.
	LSN uint64
	// Txn is the transaction id the writer tags the record with (0 for
	// an autonomous record).
	Txn uint64
	// Kind is the operation.
	Kind Kind
	// Object names the index/column the record concerns.
	Object string
	// A, B, C are the per-kind payload values.
	A, B, C int64
}

// Log is an append-only log: a stream of encoded records into its
// sink, retaining none of them. The zero value is not usable; use New.
type Log struct {
	sink   io.Writer
	syncer Syncer        // sink as a Syncer, or nil
	mem    *bytes.Buffer // the sink of an in-memory log, or nil

	mu      sync.Mutex // orders LSN assignment with the sink's writes
	nextLSN uint64
	enc     []byte // Append's encode buffer, reused under mu
}

// New creates a log that writes every appended record through sink.
// A nil sink makes an in-memory log: its sink is a byte buffer of
// encoded records, which Records decodes. A Log over any other sink
// holds nothing.
func New(sink io.Writer) *Log {
	l := &Log{nextLSN: 1, sink: sink}
	if sink == nil {
		l.mem = new(bytes.Buffer)
		l.sink = l.mem
	}
	l.syncer, _ = l.sink.(Syncer)
	return l
}

// Append assigns the next LSN to r and writes it through the sink in
// one Write call. It does not fsync: a record is durable once a later
// Sync returns. It returns the assigned LSN. A failed write still
// consumes its LSN.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	r.LSN = l.nextLSN
	l.nextLSN++
	l.enc = AppendEncode(l.enc[:0], r)
	_, err := l.sink.Write(l.enc)
	l.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	return r.LSN, nil
}

// Sync forces the sink (when it implements Syncer) to stable storage.
// It does not take the log's lock: appends proceed while it runs, and
// every record whose Append returned before Sync was called is covered.
func (l *Log) Sync() error {
	if l.syncer == nil {
		return nil
	}
	if err := l.syncer.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Len returns the number of LSNs assigned: the records appended,
// counting one whose write failed.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.nextLSN - 1)
}

// Records decodes the records of an in-memory log (New(nil)) in append
// order. A log over any other sink keeps no records and returns nil.
func (l *Log) Records() []Record {
	if l.mem == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	// The buffer holds whole records only, so Replay cannot fail.
	_, _ = Replay(l.mem.Bytes(), func(r Record) { out = append(out, r) })
	return out
}

// Encode serializes r: header(LSN, Txn, kind, lenObject) + object +
// A,B,C + checksum byte.
func Encode(r Record) []byte {
	return AppendEncode(make([]byte, 0, recordFixed+len(r.Object)+recordTrailer), r)
}

// recordFixed and recordTrailer are the encoded sizes around a
// record's object name: LSN, Txn, kind and the name's length before
// it; A, B, C and the checksum byte after it.
const (
	recordFixed   = 8 + 8 + 1 + 4
	recordTrailer = 24 + 1
)

// AppendEncode appends the encoding of r (see Encode) to dst and
// returns the extended slice. It allocates only when dst lacks the
// capacity.
func AppendEncode(dst []byte, r Record) []byte {
	start := len(dst)
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, r.LSN)
	dst = le.AppendUint64(dst, r.Txn)
	dst = append(dst, byte(r.Kind))
	dst = le.AppendUint32(dst, uint32(len(r.Object)))
	dst = append(dst, r.Object...)
	dst = le.AppendUint64(dst, uint64(r.A))
	dst = le.AppendUint64(dst, uint64(r.B))
	dst = le.AppendUint64(dst, uint64(r.C))
	var sum byte
	for _, b := range dst[start:] {
		sum ^= b
	}
	return append(dst, sum)
}

// ErrCorrupt reports a checksum mismatch during decode.
var ErrCorrupt = errors.New("wal: corrupt record")

// Decode parses one record from buf, returning the record and the
// number of bytes consumed. io.ErrUnexpectedEOF means a truncated
// record (normal at a crashed log tail).
func Decode(buf []byte) (Record, int, error) {
	if len(buf) < recordFixed {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	var r Record
	r.LSN = binary.LittleEndian.Uint64(buf[0:])
	r.Txn = binary.LittleEndian.Uint64(buf[8:])
	r.Kind = Kind(buf[16])
	objLen := int(binary.LittleEndian.Uint32(buf[17:]))
	total := recordFixed + objLen + recordTrailer
	if objLen > 1<<20 {
		return Record{}, 0, ErrCorrupt
	}
	if len(buf) < total {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	r.Object = string(buf[recordFixed : recordFixed+objLen])
	p := recordFixed + objLen
	r.A = int64(binary.LittleEndian.Uint64(buf[p:]))
	r.B = int64(binary.LittleEndian.Uint64(buf[p+8:]))
	r.C = int64(binary.LittleEndian.Uint64(buf[p+16:]))
	var sum byte
	for _, b := range buf[:total-1] {
		sum ^= b
	}
	if sum != buf[total-1] {
		return Record{}, 0, ErrCorrupt
	}
	return r, total, nil
}

// Replay decodes records from raw — a log image (ReadDir) or a bare
// stream of encoded Records — until the bytes are exhausted or a
// truncated/corrupt tail is found, invoking apply for each complete
// record; a compact write comes back as its LogicalWrite Record (no
// LSN, Txn or Object). It returns the number of records applied.
func Replay(raw []byte, apply func(Record)) (int, error) {
	n := 0
	scan(raw, func(r Record) {
		apply(r)
		n++
	}, func(w TailWrite) {
		r := Record{Kind: LogicalWrite, A: w.Value, B: w.Epoch}
		if w.Delete {
			r.C = 1
		}
		apply(r)
		n++
	})
	return n, nil
}

// replayRecords decodes the Records of a bare stream into apply and
// reports whether it consumed every byte.
func replayRecords(raw []byte, apply func(Record)) bool {
	for len(raw) > 0 {
		r, consumed, err := Decode(raw)
		if err != nil {
			return false // a truncated or corrupt tail ends the stream
		}
		apply(r)
		raw = raw[consumed:]
	}
	return true
}

// The compact record of a logged write (FileSink.LogWrite):
//
//	[writeFormat byte][value: zig-zag varint][epoch<<1 | op: uvarint]
//
// op is 1 for a delete and 0 for an insert; epochs are non-negative,
// so epoch<<1 loses no bit.
const (
	writeFormat = 1
	// maxWriteRecord is the largest compact record: two 10-byte varints.
	maxWriteRecord = 1 + 2*binary.MaxVarintLen64
)

// appendWrite appends the compact record of a write to dst. It
// allocates only when dst lacks the capacity.
func appendWrite(dst []byte, v, epoch int64, del bool) []byte {
	tag := uint64(epoch) << 1
	if del {
		tag |= 1
	}
	dst = append(dst, writeFormat)
	dst = binary.AppendVarint(dst, v)
	return binary.AppendUvarint(dst, tag)
}

// decodeWrite parses a compact record that fills p exactly.
func decodeWrite(p []byte) (TailWrite, bool) {
	if len(p) < 3 || p[0] != writeFormat {
		return TailWrite{}, false
	}
	v, n := binary.Varint(p[1:])
	if n <= 0 {
		return TailWrite{}, false
	}
	tag, m := binary.Uvarint(p[1+n:])
	if m <= 0 || 1+n+m != len(p) {
		return TailWrite{}, false
	}
	return TailWrite{Value: v, Delete: tag&1 != 0, Epoch: int64(tag >> 1)}, true
}

// imageMagic opens every log image ReadDir returns. A bare Record
// stream starts with an LSN, which would have to be about 7·10^17 to
// spell it.
const imageMagic = "ADXWAL2\n"

// A log image is imageMagic followed by one entry per intact frame, in
// log order:
//
//	[n<<1 | compact: uvarint][payload: n bytes]
//
// compact marks a frame LogWrite made (one compact record); the payload
// of any other frame is what Write was given (encoded Records). The
// frames' CRCs were checked when the image was cut, so they are gone.
func appendEntry(dst []byte, compact bool, payload []byte) []byte {
	h := uint64(len(payload)) << 1
	if compact {
		h |= 1
	}
	dst = binary.AppendUvarint(dst, h)
	return append(dst, payload...)
}

// scan walks raw — a log image, or a bare Record stream when it does
// not start with imageMagic — handing Records to record and compact
// writes to write, in log order, and stops at the first malformed
// entry or record.
func scan(raw []byte, record func(Record), write func(TailWrite)) {
	img, ok := bytes.CutPrefix(raw, []byte(imageMagic))
	if !ok {
		replayRecords(raw, record)
		return
	}
	for len(img) > 0 {
		h, k := binary.Uvarint(img)
		if k <= 0 || h>>1 > uint64(len(img)-k) {
			return
		}
		p := img[k : k+int(h>>1)]
		img = img[k+len(p):]
		if h&1 == 0 {
			if !replayRecords(p, record) {
				return
			}
			continue
		}
		w, ok := decodeWrite(p)
		if !ok {
			return
		}
		write(w)
	}
}

// Catalog is what recovery reads out of the log: the logical-write
// tail.
type Catalog struct {
	// Writes is every logical write the log holds, in log order,
	// whatever its format: a store logs one column, so this is its tail.
	// The caller replays those tagged above its snapshot's epoch
	// watermark: the snapshot already holds the others.
	Writes []TailWrite
	// TailWrites maps column name to the logical writes that carry one
	// — the Record form (LogicalWrite) — in log order. Compact records
	// carry no name and appear in Writes only.
	TailWrites map[string][]TailWrite
}

// TailWrite is one recovered logical write.
type TailWrite struct {
	// Value is the column value inserted or deleted.
	Value int64
	// Delete selects deletion; otherwise the write inserts Value.
	Delete bool
	// Epoch is the differential epoch the write landed in.
	Epoch int64
}

// Recover reads the logical-write tail out of a log image (ReadDir) or
// a bare Record stream: every compact write and every LogicalWrite
// Record, in log order, whatever its Txn. Records of any other kind —
// amerge's, or the retired structural kinds an older log holds — carry
// no data and are skipped.
func Recover(raw []byte) (*Catalog, error) {
	cat := &Catalog{TailWrites: map[string][]TailWrite{}}
	scan(raw, func(r Record) {
		if r.Kind == LogicalWrite {
			tw := TailWrite{Value: r.A, Delete: r.C != 0, Epoch: r.B}
			cat.Writes = append(cat.Writes, tw)
			cat.TailWrites[r.Object] = append(cat.TailWrites[r.Object], tw)
		}
	}, func(w TailWrite) { cat.Writes = append(cat.Writes, w) })
	return cat, nil
}
