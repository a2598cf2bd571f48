package durable

import (
	"sort"
	"testing"

	"adaptix/internal/ingest"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

// TestCrashBetweenEpochSealAndApply is the half-applied-epoch crash
// test: the process dies after the EpochSeal transaction committed but
// before the EpochApply one — the exact window the two-phase group-
// apply opens. Recovery must discard the half-applied epoch (the
// snapshot is cut at the checkpoint's watermark, so the sealed epoch's
// merge never becomes visible) and, with LogWrites on, replay its
// writes from the logical tail: the reopened store answers exactly.
func TestCrashBetweenEpochSealAndApply(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<12, 19)
	opts := testOptions(d.Values)
	opts.LogWrites = true
	// Structurally quiet: the test drives every structural step itself.
	opts.CheckpointEvery = 1 << 30
	opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}

	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Tail writes past the initial checkpoint: inserts of fresh values
	// and deletes of initial ones.
	for i := 0; i < 200; i++ {
		if err := c.Insert(qctx, d.Domain+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := c.DeleteValue(qctx, int64(i*4)); err != nil {
			t.Fatal(err)
		}
	}
	expected := append(brute(nil), c.Column().Values()...)
	sort.Slice(expected, func(i, j int) bool { return expected[i] < expected[j] })

	// First phase of the group-apply: seal the epoch in memory...
	se, ok := c.Column().SealEpoch(0)
	if !ok {
		t.Fatal("SealEpoch(0) found nothing to seal")
	}
	// ...crash before the merge. The in-memory column dies with the
	// process; only the log survives.
	if err := c.sink.Close(); err != nil {
		t.Fatal(err)
	}

	// The coordinator's EpochSeal transaction had already committed:
	// re-create it in the surviving log, with no EpochApply after it.
	sink2, err := wal.NewFileSink(dir, wal.SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log2 := wal.New(sink2)
	for _, r := range []wal.Record{
		{Kind: wal.BeginSystem, Txn: 999, Object: "sharded"},
		{Kind: wal.EpochSeal, Txn: 999, Object: "sharded", A: int64(se.Shard), B: se.Epoch, C: int64(se.Inserts + se.Deletes)},
		{Kind: wal.CommitSystem, Txn: 999, Object: "sharded"},
	} {
		if _, err := log2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must see the half-applied epoch for what it is.
	raw, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := wal.Recover(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cat.AppliedEpoch["sharded"] >= se.Epoch {
		t.Fatalf("AppliedEpoch = %d: the never-committed merge became visible", cat.AppliedEpoch["sharded"])
	}
	found := false
	for _, id := range cat.SealedEpochs["sharded"] {
		if id == se.Epoch {
			found = true
		}
	}
	if !found {
		t.Fatalf("SealedEpochs = %v: committed seal of epoch %d lost", cat.SealedEpochs["sharded"], se.Epoch)
	}
	if len(cat.TailWrites["sharded"]) == 0 {
		t.Fatal("no tail writes recovered: LogWrites produced nothing to replay")
	}

	// Reopen: exact answers, the half-applied epoch neither lost nor
	// double-applied.
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovered() {
		t.Fatal("reopen did not recover the existing store")
	}
	assertAgreesWithScan(t, re, expected, 2*d.Domain)
	if err := re.Column().Validate(); err != nil {
		t.Fatal(err)
	}
	// Epoch ids must stay monotonic across incarnations: the reopened
	// column's open epochs must sit beyond every id the old log
	// mentions, or stale segments surviving a failed truncation could
	// alias old records into the new namespace.
	for _, s := range re.Column().Snapshot() {
		if s.OpenEpoch <= se.Epoch {
			t.Errorf("shard %d: open epoch %d not advanced past recovered epoch %d",
				s.Shard, s.OpenEpoch, se.Epoch)
		}
	}
}

// TestTailReplayPairsMisorderedDeleteWithInsert: a delete's logical
// record can land in the log before the record of the insert whose
// instance it observed (the routed write and its record are not
// appended atomically). Replay must pair the two — net zero — instead
// of dropping the delete and resurrecting the insert.
func TestTailReplayPairsMisorderedDeleteWithInsert(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<10, 29)
	fresh := d.Domain + 7 // never in the base values

	// A store whose process dies right after its initial checkpoint.
	opts := testOptions(d.Values)
	opts.LogWrites = true
	opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}
	crashed, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Its log tail, tagged above the snapshot's watermark.
	const epoch = 1 << 40
	sink, err := wal.NewFileSink(dir, wal.SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log := wal.New(sink)
	for _, r := range []wal.Record{
		// Pre-crash truth: insert(fresh) then delete(fresh), records
		// landing in the log in the opposite order.
		{Kind: wal.LogicalWrite, Object: "sharded", A: fresh, B: epoch, C: 1},
		{Kind: wal.LogicalWrite, Object: "sharded", A: fresh, B: epoch, C: 0},
		// And a plain surviving tail insert.
		{Kind: wal.LogicalWrite, Object: "sharded", A: fresh + 1, B: epoch, C: 0},
	} {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, _, _ := c.Count(qctx, fresh, fresh+1); n != 0 {
		t.Errorf("count(fresh) = %d, want 0: misordered delete/insert pair not cancelled", n)
	}
	if n, _, _ := c.Count(qctx, fresh+1, fresh+2); n != 1 {
		t.Errorf("count(fresh+1) = %d, want 1: surviving tail insert lost", n)
	}
	if err := c.Column().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLogWritesCloseTailDurabilityWindow: without LogWrites, routed
// writes since the last checkpoint are lost on a crash (the documented
// window); with LogWrites they replay. Both reopened stores must be
// internally consistent.
func TestLogWritesCloseTailDurabilityWindow(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 23)
	for _, logWrites := range []bool{false, true} {
		dir := t.TempDir()
		opts := testOptions(d.Values)
		opts.LogWrites = logWrites
		opts.CheckpointEvery = 1 << 30
		opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}
		c, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkpointed := append(brute(nil), c.Column().Values()...)
		for i := 0; i < 128; i++ {
			if err := c.Insert(qctx, d.Domain+int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		withTail := append(brute(nil), c.Column().Values()...)
		// Crash: no checkpoint, no clean close.
		if err := c.sink.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := checkpointed
		if logWrites {
			want = withTail
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		assertAgreesWithScan(t, re, want, 2*d.Domain)
		re.Close()
	}
}
