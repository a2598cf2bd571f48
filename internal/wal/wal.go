// Package wal implements a write-ahead log for the *structural*
// operations of adaptive indexing.
//
// The paper (§4.2) observes that a significant advantage of building
// adaptive indexes over proven index structures is that "index
// creation and reorganization don't require logging detailed index
// contents": the logical contents are derivable from the base data,
// so only small structural records (a crack boundary was added; a run
// was created; a merge step committed) need to be durable for the
// table of contents to be rebuilt after a crash. Losing them entirely
// would also be correct — adaptive indexes are optional and
// re-creatable — but replaying them preserves the knowledge gained
// from earlier query execution ("the side effects of earlier queries
// may be re-created in the new index even without merging").
//
// Records are encoded with a fixed little-endian binary layout and
// protected by a simple XOR checksum; Replay stops at the first
// corrupt or truncated record, mimicking standard log-recovery
// behaviour.
//
// A Log is a stream, not a store: it keeps no record it has appended.
// Each record is encoded into a reused buffer and handed to the sink
// before Append returns, so what a Log retains is exactly what its sink
// retains — nothing for the file sink, the encoded bytes for the
// in-memory log New(nil) builds.
//
// Durability is provided by the file sink (sink.go): CRC-framed
// records in rotating segment files, fsynced on every system
// transaction commit. An fsync runs outside both the log's and the
// sink's append lock, so writers keep appending while it is in flight
// (group commit). The log holds no checkpoint: a checkpoint is a
// data snapshot written outside it (internal/durable's base.snap, which
// carries the shard map and every shard's pieces), so the structure
// never has to be re-derived from records. The checkpoint writer rotates
// the sink before it cuts the snapshot's epoch watermark and deletes the
// segments before the rotation once the snapshot is durable
// (SegmentTruncator); what the log then contributes to recovery is the
// logical-write tail (LogicalWrite records tagged above the watermark)
// and the epoch ids it mentions.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Kind identifies the structural operation a record describes.
type Kind uint8

const (
	// BeginSystem marks the start of a system transaction.
	BeginSystem Kind = iota + 1
	// CommitSystem marks its instant commit.
	CommitSystem
	// CrackBoundary records that a crack boundary was added to a column.
	CrackBoundary
	// RunCreated records that a sorted run (partition) was created.
	RunCreated
	// MergeStep records that a key range moved from source partitions
	// into the final partition.
	MergeStep
	_ // 6 is reserved: no record kind takes it
	// ShardInsert records that a batch of differential updates was
	// group-applied (merged) into one shard's cracker array.
	ShardInsert
	// ShardSplit records that a shard-map cut was added: a shard was
	// split at the cut value. Recovery takes the shard map from the
	// snapshot; a split after it is re-derived by the rebalancer.
	ShardSplit
	// ShardMerge records that a shard-map cut was removed: the two
	// shards adjacent to it were merged.
	ShardMerge
	// EpochSeal records that one shard's open differential epoch was
	// sealed (the first half of an epoch-chain group-apply; writers
	// roll to the next epoch without parking).
	EpochSeal
	// EpochApply records that every sealed epoch up to a watermark was
	// merged into one shard's cracker array. An EpochSeal without a
	// later EpochApply covering its id marks a half-applied epoch: the
	// merge never committed, so recovery must not assume the base
	// incorporates it (the snapshot is cut at its epoch watermark, so
	// nothing needs undoing — the epoch's writes simply replay from
	// LogicalWrite records, or are absent without them).
	EpochApply
	// LogicalWrite records one routed update — value plus operation —
	// tagged with the epoch it landed in. Optional (ingest
	// Options.LogWrites): it closes the lose-writes-since-last-
	// checkpoint window by letting recovery replay the data tail past
	// the snapshot's epoch watermark.
	LogicalWrite
)

// String returns the kind's log-friendly name.
func (k Kind) String() string {
	switch k {
	case BeginSystem:
		return "begin-system"
	case CommitSystem:
		return "commit-system"
	case CrackBoundary:
		return "crack-boundary"
	case RunCreated:
		return "run-created"
	case MergeStep:
		return "merge-step"
	case ShardInsert:
		return "shard-insert"
	case ShardSplit:
		return "shard-split"
	case ShardMerge:
		return "shard-merge"
	case EpochSeal:
		return "epoch-seal"
	case EpochApply:
		return "epoch-apply"
	case LogicalWrite:
		return "logical-write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one structural log record. The three int64 payload fields
// are interpreted per kind:
//
//	CrackBoundary: A = boundary value
//	RunCreated:    A = partition id, B = record count
//	MergeStep:     A = low key, B = high key, C = records moved
//	ShardInsert:   A = shard ordinal, B = inserts merged, C = deletes merged
//	ShardSplit:    A = cut value, B = left rows, C = right rows
//	ShardMerge:    A = removed cut value, B = merged rows
//	EpochSeal:     A = shard ordinal, B = sealed epoch id, C = records sealed
//	EpochApply:    A = shard ordinal, B = applied epoch watermark, C = records merged
//	LogicalWrite:  A = value, B = epoch id, C = op (0 insert, 1 delete)
type Record struct {
	// LSN is the log sequence number, assigned by Append.
	LSN uint64
	// Txn is the system transaction id.
	Txn uint64
	// Kind is the operation.
	Kind Kind
	// Object names the index/column the record concerns.
	Object string
	// A, B, C are the per-kind payload values.
	A, B, C int64
}

// Log is an append-only structural log: a stream of encoded records
// into its sink, retaining none of them. The zero value is not usable;
// use New.
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
// one Write call. When the sink implements Syncer, a CommitSystem
// record additionally forces the sink to stable storage before Append
// returns — fsync-on-commit, the write-ahead rule for system
// transactions. The sync starts after the record is written and runs
// outside the log's lock, so other appends proceed while it is in
// flight. It returns the assigned LSN. A failed write still consumes
// its LSN, so recovery sees the gap.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	r.LSN = l.nextLSN
	l.nextLSN++
	l.enc = AppendEncode(l.enc[:0], r)
	_, err := l.sink.Write(l.enc)
	l.mu.Unlock()
	if err == nil && r.Kind == CommitSystem && l.syncer != nil {
		err = l.syncer.Sync()
	}
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

// Replay decodes records from raw until the bytes are exhausted or a
// truncated/corrupt tail is found, invoking apply for each complete
// record. It returns the number of records applied.
func Replay(raw []byte, apply func(Record)) (int, error) {
	n := 0
	for len(raw) > 0 {
		r, consumed, err := Decode(raw)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt) {
				return n, nil // normal crashed-tail stop
			}
			return n, err
		}
		apply(r)
		raw = raw[consumed:]
		n++
	}
	return n, nil
}

// Catalog is what recovery reads out of the log: crack boundaries per
// column and partitions per index (the paper-figure engines), and, per
// sharded column, the committed group-applies, the epoch ids they name,
// and the logical-write tail. It demonstrates that structure (not
// contents) is all the log carries.
type Catalog struct {
	// Boundaries maps column name to crack boundary values in append
	// order.
	Boundaries map[string][]int64
	// Partitions maps index name to live partition ids.
	Partitions map[string][]int64
	// ShardApplies maps sharded-column name to the number of committed
	// group-apply merges (ShardInsert and EpochApply records).
	ShardApplies map[string]int64
	// TailWrites maps sharded-column name to its logical writes, in log
	// order. The caller replays those tagged above its snapshot's epoch
	// watermark: the snapshot already holds the others.
	TailWrites map[string][]TailWrite
	// SealedEpochs maps sharded-column name to the ids of committed
	// EpochSeal records, in log order. A sealed id above AppliedEpoch
	// is a half-applied epoch: its group-apply merge never committed
	// before the crash, and recovery does not assume the base
	// incorporates it.
	SealedEpochs map[string][]int64
	// AppliedEpoch maps sharded-column name to the highest committed
	// EpochApply watermark.
	AppliedEpoch map[string]int64
}

// TailWrite is one recovered logical write (LogicalWrite record).
type TailWrite struct {
	// Value is the column value inserted or deleted.
	Value int64
	// Delete selects deletion; otherwise the write inserts Value.
	Delete bool
	// Epoch is the differential epoch the write landed in.
	Epoch int64
}

// Recover rebuilds the catalog from an encoded log image, honouring
// only records of committed system transactions (a begin without a
// commit is ignored, as an aborted refinement leaves no trace).
func Recover(raw []byte) (*Catalog, error) {
	type pending struct {
		recs []Record
	}
	open := map[uint64]*pending{}
	cat := &Catalog{
		Boundaries:   map[string][]int64{},
		Partitions:   map[string][]int64{},
		ShardApplies: map[string]int64{},
		TailWrites:   map[string][]TailWrite{},
		SealedEpochs: map[string][]int64{},
		AppliedEpoch: map[string]int64{},
	}
	applyRec := func(r Record) {
		switch r.Kind {
		case CrackBoundary:
			cat.Boundaries[r.Object] = append(cat.Boundaries[r.Object], r.A)
		case RunCreated:
			cat.Partitions[r.Object] = append(cat.Partitions[r.Object], r.A)
		case ShardInsert:
			cat.ShardApplies[r.Object]++
		case EpochSeal:
			cat.SealedEpochs[r.Object] = append(cat.SealedEpochs[r.Object], r.B)
		case EpochApply:
			if r.B > cat.AppliedEpoch[r.Object] {
				cat.AppliedEpoch[r.Object] = r.B
			}
			cat.ShardApplies[r.Object]++
		case LogicalWrite:
			cat.TailWrites[r.Object] = append(cat.TailWrites[r.Object],
				TailWrite{Value: r.A, Delete: r.C != 0, Epoch: r.B})
		}
	}
	var prevLSN uint64
	_, err := Replay(raw, func(r Record) {
		// An LSN discontinuity marks lost records: a process restart
		// (the sequence resets to 1) or a damaged segment skipped by
		// ReadDir. Transactions still open across the gap can never
		// complete validly — their missing records are unrecoverable —
		// so they are abandoned, and their later stragglers (records
		// or a commit arriving after the gap) must not be mistaken for
		// autonomous work. Hand-built images without LSNs (all zero)
		// are unaffected.
		if prevLSN != 0 && r.LSN != prevLSN+1 {
			for k := range open {
				delete(open, k)
			}
		}
		prevLSN = r.LSN
		switch r.Kind {
		case BeginSystem:
			open[r.Txn] = &pending{}
		case CommitSystem:
			if p := open[r.Txn]; p != nil {
				for _, pr := range p.recs {
					applyRec(pr)
				}
				delete(open, r.Txn)
			}
		default:
			if p := open[r.Txn]; p != nil {
				p.recs = append(p.recs, r)
			} else if r.Txn == 0 {
				// Autonomous record outside any system txn: apply
				// directly.
				applyRec(r)
			}
			// A non-zero Txn with no open Begin is an orphan of an
			// abandoned transaction: ignored.
		}
	})
	if err != nil {
		return nil, err
	}
	return cat, nil
}
