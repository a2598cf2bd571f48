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
		lsn, err := l.Append(Record{Kind: RunCreated, Object: "R.A", A: int64(i)})
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
	l.Append(Record{Kind: LogicalWrite, Object: "R.A", A: 10})
	l.Append(Record{Kind: LogicalWrite, Object: "R.A", A: 20})
	raw := buf.Bytes()
	// Simulate a crash mid-write of a third record.
	partial := append(append([]byte{}, raw...), Encode(Record{Kind: LogicalWrite, A: 30})[:5]...)
	var seen []int64
	n, err := Replay(partial, func(r Record) { seen = append(seen, r.A) })
	if err != nil || n != 2 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 20 {
		t.Fatalf("seen = %v", seen)
	}
}

// TestRecoverRebuildsCatalog: the catalog is each column's logical
// writes, in log order; amerge's run and merge records share the log
// and carry no data for it.
func TestRecoverRebuildsCatalog(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Append(Record{Kind: LogicalWrite, Object: "R.A", A: 100, B: 1})
	l.Append(Record{Kind: RunCreated, Object: "pbtree", A: 1, B: 5000})
	l.Append(Record{Kind: LogicalWrite, Object: "R.A", A: 200, B: 1, C: 1})
	l.Append(Record{Kind: MergeStep, Object: "pbtree", A: 0, B: 10, C: 4})
	l.Append(Record{Kind: LogicalWrite, Object: "R.B", A: 7, B: 2})

	cat, err := Recover(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cat.TailWrites["R.A"], []TailWrite{{Value: 100, Epoch: 1}, {Value: 200, Delete: true, Epoch: 1}}; !slices.Equal(got, want) {
		t.Fatalf("R.A tail = %+v, want %+v", got, want)
	}
	if got, want := cat.TailWrites["R.B"], []TailWrite{{Value: 7, Epoch: 2}}; !slices.Equal(got, want) {
		t.Fatalf("R.B tail = %+v, want %+v", got, want)
	}
	if len(cat.TailWrites) != 2 {
		t.Fatalf("catalog names %d columns, want 2: %v", len(cat.TailWrites), cat.TailWrites)
	}
}

// TestRecoverTailWritesInLogOrder: every logical write comes back in
// log order with its epoch tag, whatever else the log holds between
// them; filtering by a snapshot's watermark is the caller's (the log
// does not know which snapshot it will meet).
func TestRecoverTailWritesInLogOrder(t *testing.T) {
	const obj = "col"
	recs := []Record{
		{Kind: LogicalWrite, Object: obj, A: 100, B: 1, C: 0},
		{Kind: LogicalWrite, Object: obj, A: 200, B: 2, C: 1},
		{Kind: RunCreated, Object: obj, A: 1, B: 2},
		{Kind: LogicalWrite, Object: obj, A: 300, B: 3, C: 0},
		{Kind: LogicalWrite, Object: obj, A: 250, B: 2, C: 0},
		{Kind: LogicalWrite, Object: "other", A: 1, B: 1, C: 0},
	}
	cat, err := Recover(encodeAll(recs))
	if err != nil {
		t.Fatal(err)
	}
	want := []TailWrite{
		{Value: 100, Delete: false, Epoch: 1},
		{Value: 200, Delete: true, Epoch: 2},
		{Value: 300, Delete: false, Epoch: 3},
		{Value: 250, Delete: false, Epoch: 2},
	}
	if got := cat.TailWrites[obj]; !slices.Equal(got, want) {
		t.Fatalf("TailWrites = %+v, want %+v", got, want)
	}
	if got := cat.TailWrites["other"]; len(got) != 1 {
		t.Fatalf("other object's TailWrites = %+v, want one", got)
	}
}

// TestRecoverOldLogKeepsLogicalTail: a log written while group-applies,
// splits and merges still logged system transactions holds the retired
// kinds (1 begin, 2 commit, 3 crack boundary, 7 shard insert, 8 split,
// 9 merge, 10 epoch seal, 11 epoch apply) in Txn != 0 brackets, some of
// them never committed, between the Txn 0 logical writes, and restarts
// its LSNs at each reopen. It still opens: Recover returns exactly the
// logical writes, in log order, whatever their Txn, and a retired kind
// prints as Kind(n).
func TestRecoverOldLogKeepsLogicalTail(t *testing.T) {
	const obj = "col"
	raw := encodeAll([]Record{
		{LSN: 1, Kind: LogicalWrite, Object: obj, A: 10, B: 1},
		{LSN: 2, Txn: 1, Kind: 1},
		{LSN: 3, Txn: 1, Kind: 10, Object: obj, A: 0, B: 1, C: 1},
		{LSN: 4, Txn: 1, Kind: 2},
		{LSN: 5, Kind: LogicalWrite, Object: obj, A: 20, B: 2, C: 1},
		{LSN: 6, Txn: 2, Kind: 1},
		{LSN: 7, Txn: 2, Kind: 11, Object: obj, A: 0, B: 1, C: 1},
		{LSN: 8, Txn: 2, Kind: 7, Object: obj, A: 0, B: 1},
		{LSN: 9, Txn: 2, Kind: 2},
		{LSN: 10, Txn: 3, Kind: 1},
		{LSN: 11, Txn: 3, Kind: 8, Object: obj, A: 500, B: 4, C: 4},
		{LSN: 12, Kind: LogicalWrite, Object: obj, A: 30, B: 2},
		{LSN: 13, Txn: 3, Kind: 2},
		{LSN: 14, Txn: 4, Kind: 1},
		{LSN: 15, Txn: 4, Kind: 9, Object: obj, A: 500, B: 8},
		{LSN: 16, Txn: 4, Kind: 3, Object: obj, A: 77},
		// Transaction 4 never committed: a reopen restarts the LSNs.
		{LSN: 1, Kind: LogicalWrite, Object: obj, A: 40, B: 3},
		// A logical write someone tagged with a Txn outside any bracket.
		{LSN: 2, Txn: 1, Kind: LogicalWrite, Object: obj, A: 50, B: 3},
	})
	cat, err := Recover(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []TailWrite{
		{Value: 10, Epoch: 1},
		{Value: 20, Delete: true, Epoch: 2},
		{Value: 30, Epoch: 2},
		{Value: 40, Epoch: 3},
		{Value: 50, Epoch: 3},
	}
	if got := cat.TailWrites[obj]; !slices.Equal(got, want) {
		t.Fatalf("TailWrites = %+v, want %+v", got, want)
	}
	if len(cat.TailWrites) != 1 {
		t.Fatalf("catalog names %d columns, want 1", len(cat.TailWrites))
	}
	for k, want := range map[Kind]string{
		1: "Kind(1)", 2: "Kind(2)", 3: "Kind(3)", 7: "Kind(7)", 8: "Kind(8)",
		9: "Kind(9)", 10: "Kind(10)", 11: "Kind(11)",
	} {
		if got := k.String(); got != want {
			t.Errorf("retired kind %d prints %q, want %q", uint8(k), got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		RunCreated: "run-created", MergeStep: "merge-step",
		LogicalWrite: "logical-write",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestEpochKindStrings: the retired epoch kinds (10 EpochSeal,
// 11 EpochApply) have no names left and print as Kind(n), while the
// epoch-tagged LogicalWrite keeps its name.
func TestEpochKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		10:           "Kind(10)",
		11:           "Kind(11)",
		LogicalWrite: "logical-write",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// TestStructuralOnlyNoContents: structure costs the log nothing, and a
// write costs one small fixed-size record whatever the column's size —
// the §4.2 "no logging of index contents" property.
func TestStructuralOnlyNoContents(t *testing.T) {
	enc := Encode(Record{Kind: LogicalWrite, Object: "R.verylongcolumnname", A: 123456, B: 1 << 40, C: 1})
	if len(enc) > 128 {
		t.Fatalf("logical-write record is %d bytes; contents are being logged?", len(enc))
	}
}

func encodeAll(recs []Record) []byte {
	var raw []byte
	for _, r := range recs {
		raw = append(raw, Encode(r)...)
	}
	return raw
}

// TestRecoverTruncatedMidRebalance: a rebalance logs nothing, so a
// crash during one tears at most the logical write in flight: the
// writes before it come back, the torn one does not.
func TestRecoverTruncatedMidRebalance(t *testing.T) {
	raw := encodeAll([]Record{
		{Kind: LogicalWrite, Object: "R.A", A: 100, B: 1},
		{Kind: LogicalWrite, Object: "R.A", A: 200, B: 1},
		{Kind: LogicalWrite, Object: "R.A", A: 300, B: 2},
	})
	torn := Encode(Record{Kind: LogicalWrite, Object: "R.A", A: 400, B: 2})
	raw = append(raw, torn[:len(torn)-5]...)

	n, err := Replay(raw, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Replay applied %d records, want 3 (torn tail dropped)", n)
	}
	cat, err := Recover(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.TailWrites["R.A"]; len(got) != 3 || got[2].Value != 300 {
		t.Fatalf("TailWrites = %+v, want the three whole writes", got)
	}
}

// TestRecoverCorruptMidRebalance: a corrupt record ends the readable
// log; the writes before it are recovered, nothing after it is.
func TestRecoverCorruptMidRebalance(t *testing.T) {
	prefix := encodeAll([]Record{
		{Kind: LogicalWrite, Object: "R.A", A: 100, B: 1},
		{Kind: LogicalWrite, Object: "R.A", A: 200, B: 1, C: 1},
	})
	tail := encodeAll([]Record{
		{Kind: LogicalWrite, Object: "R.A", A: 300, B: 2},
		{Kind: LogicalWrite, Object: "R.A", A: 400, B: 2},
	})
	tail[3] ^= 0xFF // corrupt the tail's first record
	raw := append(append([]byte{}, prefix...), tail...)

	n, err := Replay(raw, func(Record) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Replay applied %d records, want 2 (corrupt tail dropped)", n)
	}
	cat, err := Recover(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []TailWrite{{Value: 100, Epoch: 1}, {Value: 200, Delete: true, Epoch: 1}}
	if got := cat.TailWrites["R.A"]; !slices.Equal(got, want) {
		t.Fatalf("TailWrites = %+v, want %+v", got, want)
	}
}
