package wal

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestAppendAssignsLSNs(t *testing.T) {
	l := New(nil)
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append(Record{Kind: CrackBoundary, Object: "R.A", A: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("LSN = %d, want %d", lsn, i)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	recs := l.Records()
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.A != int64(i+1) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(txn uint64, kind uint8, obj string, a, b, c int64) bool {
		r := Record{LSN: 7, Txn: txn, Kind: Kind(kind%6 + 1), Object: obj, A: a, B: b, C: c}
		enc := Encode(r)
		got, n, err := Decode(enc)
		// AppendEncode after a prefix leaves the prefix and appends the
		// same bytes.
		app := AppendEncode([]byte("xyz"), r)
		return err == nil && n == len(enc) && got == r && bytes.Equal(app, append([]byte("xyz"), enc...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := Encode(Record{LSN: 1, Kind: RunCreated, Object: "idx", A: 3, B: 100})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncated decode at %d succeeded", cut)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	enc := Encode(Record{LSN: 1, Kind: MergeStep, Object: "idx", A: 1, B: 2, C: 3})
	enc[len(enc)-2] ^= 0xFF // flip a payload byte, checksum now wrong
	if _, _, err := Decode(enc); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestReplayStopsAtCrashedTail(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Append(Record{Txn: 1, Kind: CrackBoundary, Object: "R.A", A: 10})
	l.Append(Record{Txn: 1, Kind: CrackBoundary, Object: "R.A", A: 20})
	raw := buf.Bytes()
	// Simulate a crash mid-write of a third record.
	partial := append(append([]byte{}, raw...), Encode(Record{Txn: 1, Kind: CrackBoundary, A: 30})[:5]...)
	var seen []int64
	n, err := Replay(partial, func(r Record) { seen = append(seen, r.A) })
	if err != nil || n != 2 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 20 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestRecoverRebuildsCatalog(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	// Committed system txn 1: two boundaries + one run.
	l.Append(Record{Txn: 1, Kind: BeginSystem})
	l.Append(Record{Txn: 1, Kind: CrackBoundary, Object: "R.A", A: 100})
	l.Append(Record{Txn: 1, Kind: CrackBoundary, Object: "R.A", A: 200})
	l.Append(Record{Txn: 1, Kind: RunCreated, Object: "pbtree", A: 1, B: 5000})
	l.Append(Record{Txn: 1, Kind: CommitSystem})
	// Uncommitted system txn 2: must be ignored.
	l.Append(Record{Txn: 2, Kind: BeginSystem})
	l.Append(Record{Txn: 2, Kind: CrackBoundary, Object: "R.A", A: 999})
	// Autonomous record: applied directly.
	l.Append(Record{Txn: 0, Kind: RunCreated, Object: "pbtree", A: 2, B: 4096})

	cat, err := Recover(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bs := cat.Boundaries["R.A"]
	if len(bs) != 2 || bs[0] != 100 || bs[1] != 200 {
		t.Fatalf("boundaries = %v", bs)
	}
	ps := cat.Partitions["pbtree"]
	if len(ps) != 2 || ps[0] != 1 || ps[1] != 2 {
		t.Fatalf("partitions = %v", ps)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		BeginSystem: "begin-system", CommitSystem: "commit-system",
		CrackBoundary: "crack-boundary", RunCreated: "run-created",
		MergeStep: "merge-step",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStructuralOnlyNoContents(t *testing.T) {
	// A crack of a 1M-value column logs ONE small record, independent
	// of data size — the §4.2 "no logging of index contents" property.
	enc := Encode(Record{Txn: 1, Kind: CrackBoundary, Object: "R.verylongcolumnname", A: 123456})
	if len(enc) > 128 {
		t.Fatalf("structural record is %d bytes; contents are being logged?", len(enc))
	}
}

func encodeAll(recs []Record) []byte {
	var raw []byte
	for _, r := range recs {
		raw = append(raw, Encode(r)...)
	}
	return raw
}

func TestRecoverLSNGapAbandonsOpenTxns(t *testing.T) {
	// Records lost in a damaged middle segment leave transaction 2's
	// begin behind a gap from its records and commit. Neither the
	// stragglers nor the commit may apply — and the stragglers must
	// not be mistaken for autonomous records.
	raw := encodeAll([]Record{
		{LSN: 1, Txn: 1, Kind: BeginSystem},
		{LSN: 2, Txn: 1, Kind: EpochSeal, Object: "col", B: 1},
		{LSN: 3, Txn: 1, Kind: CommitSystem},
		{LSN: 4, Txn: 2, Kind: BeginSystem},
		// LSNs 5..6 lost with a damaged segment tail.
		{LSN: 7, Txn: 2, Kind: EpochSeal, Object: "col", B: 3},
		{LSN: 8, Txn: 2, Kind: CommitSystem},
	})
	cat, err := Recover(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.SealedEpochs["col"]; !slices.Equal(got, []int64{1}) {
		t.Fatalf("SealedEpochs = %v, want [1] (partial txn applied across LSN gap)", got)
	}
}

// --- Shard-map structural records (internal/ingest) ---

func TestRecoverTruncatedMidRebalance(t *testing.T) {
	full := encodeAll([]Record{
		{Txn: 1, Kind: BeginSystem, Object: "R.A"},
		{Txn: 1, Kind: ShardSplit, Object: "R.A", A: 100},
		{Txn: 1, Kind: CommitSystem, Object: "R.A"},
	})
	commitRec := Encode(Record{Txn: 2, Kind: CommitSystem, Object: "R.A"})
	raw := append(append([]byte{}, full...),
		Encode(Record{Txn: 2, Kind: BeginSystem, Object: "R.A"})...)
	raw = append(raw, Encode(Record{Txn: 2, Kind: ShardSplit, Object: "R.A", A: 300})...)
	raw = append(raw, commitRec[:len(commitRec)-5]...) // torn commit record

	n, err := Replay(raw, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("Replay applied %d records, want 5 (torn tail dropped)", n)
	}
	if _, err := Recover(raw); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverCorruptMidRebalance(t *testing.T) {
	prefix := encodeAll([]Record{
		{Txn: 1, Kind: BeginSystem, Object: "R.A"},
		{Txn: 1, Kind: ShardMerge, Object: "R.A", A: 100},
		{Txn: 1, Kind: CommitSystem, Object: "R.A"},
	})
	tail := encodeAll([]Record{
		{Txn: 2, Kind: BeginSystem, Object: "R.A"},
		{Txn: 2, Kind: ShardSplit, Object: "R.A", A: 300},
		{Txn: 2, Kind: CommitSystem, Object: "R.A"},
	})
	tail[3] ^= 0xFF // corrupt the tail's first record
	raw := append(append([]byte{}, prefix...), tail...)

	// Replay stops at the corrupt record: the merge's transaction is
	// read whole, the split's not at all.
	n, err := Replay(raw, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Replay applied %d records, want 3 (corrupt tail dropped)", n)
	}
	if _, err := Recover(raw); err != nil {
		t.Fatal(err)
	}
}

func TestShardKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		ShardInsert: "shard-insert",
		ShardSplit:  "shard-split",
		ShardMerge:  "shard-merge",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
