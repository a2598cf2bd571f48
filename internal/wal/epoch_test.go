package wal

import (
	"slices"
	"testing"
)

// TestRecoverTailWritesInLogOrder: every logical write comes back in
// log order with its epoch tag, whether it sits between system
// transactions or among them; filtering by a snapshot's watermark is
// the caller's (the log does not know which snapshot it will meet).
func TestRecoverTailWritesInLogOrder(t *testing.T) {
	const obj = "col"
	recs := []Record{
		{Kind: LogicalWrite, Object: obj, A: 100, B: 1, C: 0},
		{Kind: LogicalWrite, Object: obj, A: 200, B: 2, C: 1},
		{Txn: 7, Kind: BeginSystem, Object: obj},
		{Txn: 7, Kind: EpochSeal, Object: obj, A: 0, B: 2, C: 2},
		{Kind: LogicalWrite, Object: obj, A: 300, B: 3, C: 0},
		{Txn: 7, Kind: CommitSystem, Object: obj},
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

// TestRecoverDiscardsHalfAppliedEpoch: a committed EpochSeal whose
// merge (EpochApply) never committed — the crash window between the
// two transactions — leaves the sealed id above AppliedEpoch, and the
// epoch's logical writes stay in the replayable tail: recovery never
// assumes the base incorporates a half-applied epoch.
func TestRecoverDiscardsHalfAppliedEpoch(t *testing.T) {
	const obj = "col"
	var recs []Record
	recs = append(recs,
		// Epoch 1 sealed and fully applied.
		Record{Txn: 2, Kind: BeginSystem, Object: obj},
		Record{Txn: 2, Kind: EpochSeal, Object: obj, A: 0, B: 1, C: 10},
		Record{Txn: 2, Kind: CommitSystem, Object: obj},
		Record{Txn: 3, Kind: BeginSystem, Object: obj},
		Record{Txn: 3, Kind: EpochApply, Object: obj, A: 0, B: 1, C: 10},
		Record{Txn: 3, Kind: CommitSystem, Object: obj},
		// Epoch 2's writes, then its seal commits — and the process
		// dies before the apply transaction.
		Record{Kind: LogicalWrite, Object: obj, A: 42, B: 2, C: 0},
		Record{Txn: 4, Kind: BeginSystem, Object: obj},
		Record{Txn: 4, Kind: EpochSeal, Object: obj, A: 0, B: 2, C: 1},
		Record{Txn: 4, Kind: CommitSystem, Object: obj},
	)
	cat, err := Recover(encodeAll(recs))
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.AppliedEpoch[obj]; got != 1 {
		t.Errorf("AppliedEpoch = %d, want 1", got)
	}
	if got := cat.SealedEpochs[obj]; len(got) != 2 || got[1] != 2 {
		t.Errorf("SealedEpochs = %v, want [1 2]", got)
	}
	// The half-applied epoch is exactly the sealed suffix past the
	// applied watermark.
	half := 0
	for _, id := range cat.SealedEpochs[obj] {
		if id > cat.AppliedEpoch[obj] {
			half++
		}
	}
	if half != 1 {
		t.Errorf("half-applied epochs = %d, want 1", half)
	}
	// Its write replays from the tail.
	if tw := cat.TailWrites[obj]; len(tw) != 1 || tw[0].Value != 42 || tw[0].Epoch != 2 {
		t.Errorf("TailWrites = %+v, want the half-applied epoch's write", tw)
	}
	if got := cat.ShardApplies[obj]; got != 1 {
		t.Errorf("ShardApplies = %d, want 1", got)
	}
}

// TestRecoverUncommittedEpochSealLeavesNoTrace: an EpochSeal inside a
// transaction that never committed (crash before the fsync) is
// invisible to recovery.
func TestRecoverUncommittedEpochSealLeavesNoTrace(t *testing.T) {
	const obj = "col"
	recs := []Record{
		{Txn: 9, Kind: BeginSystem, Object: obj},
		{Txn: 9, Kind: EpochSeal, Object: obj, A: 0, B: 5, C: 3},
	}
	cat, err := Recover(encodeAll(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.SealedEpochs[obj]) != 0 {
		t.Errorf("SealedEpochs = %v, want empty", cat.SealedEpochs[obj])
	}
}

// TestEpochKindStrings pins the log-friendly names of the new kinds.
func TestEpochKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		EpochSeal:    "epoch-seal",
		EpochApply:   "epoch-apply",
		LogicalWrite: "logical-write",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}
