package durable

import (
	"os"
	"sort"
	"testing"

	"adaptix/internal/ingest"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

// TestCrashBetweenEpochSealAndApply: the process dies after a
// group-apply sealed an epoch in memory and before it merged it — the
// window the two-phase group-apply opens. The seal logged nothing, so
// the log holds only the epoch's logical writes; recovery replays them
// on top of the snapshot, and the reopened store answers exactly.
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
	// process; only the directory survives.
	if err := c.sink.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []wal.Kind
	if _, err := wal.Replay(raw, func(r wal.Record) { kinds = append(kinds, r.Kind) }); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 250 {
		t.Fatalf("log holds %d records, want the 250 logical writes", len(kinds))
	}
	for _, k := range kinds {
		if k != wal.LogicalWrite {
			t.Fatalf("log holds a %v record: the seal logged structure", k)
		}
	}

	// Reopen: exact answers, the sealed epoch neither lost nor
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
	// mentions, or the segments it keeps could alias old records into
	// the new namespace.
	for _, s := range re.Column().Snapshot() {
		if s.OpenEpoch <= se.Epoch {
			t.Errorf("shard %d: open epoch %d not advanced past recovered epoch %d",
				s.Shard, s.OpenEpoch, se.Epoch)
		}
	}
}

// TestReopenOldLogWithStructuralRecords: a store whose log was written
// while group-applies, splits and merges still logged system
// transactions — retired kinds 1, 2 and 7–11 in Txn brackets, one of
// them never committed, between the logical writes — reopens with every
// logical write replayed once and its epochs resumed past the highest
// tag.
func TestReopenOldLogWithStructuralRecords(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<10, 31)
	fresh := d.Domain + 5 // never in the base values
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

	const epoch = 1 << 40
	sink, err := wal.NewFileSink(dir, wal.SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log := wal.New(sink)
	for _, r := range []wal.Record{
		{Kind: wal.LogicalWrite, Object: "sharded", A: fresh, B: epoch},
		{Txn: 1, Kind: 1},
		{Txn: 1, Kind: 10, Object: "sharded", A: 0, B: epoch, C: 1},
		{Txn: 1, Kind: 2},
		{Txn: 2, Kind: 1},
		{Txn: 2, Kind: 11, Object: "sharded", A: 0, B: epoch, C: 1},
		{Txn: 2, Kind: 7, Object: "sharded", A: 0, B: 1},
		{Txn: 2, Kind: 2},
		{Kind: wal.LogicalWrite, Object: "sharded", A: 3, B: epoch + 1, C: 1},
		{Txn: 3, Kind: 1},
		{Txn: 3, Kind: 8, Object: "sharded", A: 500, B: 10, C: 10},
		{Kind: wal.LogicalWrite, Object: "sharded", A: fresh + 1, B: epoch + 1},
		{Txn: 3, Kind: 2},
		{Txn: 4, Kind: 1},
		{Txn: 4, Kind: 9, Object: "sharded", A: 500, B: 20},
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
	for v, want := range map[int64]int64{fresh: 1, fresh + 1: 1, 3: 0, 4: 1} {
		if n, _, _ := c.Count(qctx, v, v+1); n != want {
			t.Errorf("count(%d) = %d, want %d", v, n, want)
		}
	}
	if got, want := c.Column().Rows(), len(d.Values)+1; got != want {
		t.Errorf("rows = %d, want %d", got, want)
	}
	for _, s := range c.Column().Snapshot() {
		if s.OpenEpoch <= epoch+1 {
			t.Errorf("shard %d: open epoch %d not advanced past the log's %d", s.Shard, s.OpenEpoch, epoch+1)
		}
	}
	if err := c.Column().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenMixedFormatLog: a store whose log tail holds Record-form
// writes from before the compact format reopens, replays them, and logs
// its own writes compactly into fresh segments. A crash then leaves
// both formats in the tail, and the next reopen replays both, in log
// order: the new delete cancels the old insert.
func TestReopenMixedFormatLog(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<10, 37)
	fresh := d.Domain + 5 // never in the base values
	opts := testOptions(d.Values)
	opts.LogWrites = true
	opts.CheckpointEvery = 1 << 30
	opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}
	crashed, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.sink.Close(); err != nil {
		t.Fatal(err)
	}

	const epoch = 1 << 40
	sink, err := wal.NewFileSink(dir, wal.SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log := wal.New(sink)
	for _, v := range []int64{fresh, fresh + 1} {
		if _, err := log.Append(wal.Record{Kind: wal.LogicalWrite, Object: "sharded", A: v, B: epoch}); err != nil {
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
	if ok, err := c.DeleteValue(qctx, fresh); !ok || err != nil {
		t.Fatalf("DeleteValue(replayed insert) = %v, %v", ok, err)
	}
	if err := c.Insert(qctx, fresh+2); err != nil {
		t.Fatal(err)
	}
	if err := c.sink.Close(); err != nil { // crash: no checkpoint
		t.Fatal(err)
	}
	raw, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := wal.Recover(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Writes) != 4 || len(cat.TailWrites["sharded"]) != 2 {
		t.Fatalf("log holds %d writes, %d of them Records; want the 2 old Records and 2 compact writes", len(cat.Writes), len(cat.TailWrites["sharded"]))
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for v, want := range map[int64]int64{fresh: 0, fresh + 1: 1, fresh + 2: 1} {
		if n, _, _ := re.Count(qctx, v, v+1); n != want {
			t.Errorf("count(%d) = %d, want %d", v, n, want)
		}
	}
	if err := re.Column().Validate(); err != nil {
		t.Fatal(err)
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

// TestCancelledPairsRecover: a delete cancels a pending insert only in
// the insert's own epoch, so the checkpoint image and the log records
// above its watermark W still partition the write history. An insert
// checkpointed before its delete leaves the delete above W as
// anti-matter; an insert and delete in one epoch leave nothing pending
// and two records that replay to net zero. Either way a crash copy
// reopens with the value gone.
func TestCancelledPairsRecover(t *testing.T) {
	for _, checkpoint := range []bool{true, false} {
		t.Run(map[bool]string{true: "across a checkpoint", false: "one epoch"}[checkpoint], func(t *testing.T) {
			dir := t.TempDir()
			d := workload.NewUniqueUniform(1<<10, 31)
			v := d.Domain + 3 // never in the base values
			opts := testOptions(d.Values)
			opts.LogWrites = true
			opts.CheckpointEvery = 1 << 30
			opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}
			c, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Insert(qctx, v); err != nil {
				t.Fatal(err)
			}
			if checkpoint && !c.Checkpoint() {
				t.Fatal("Checkpoint() failed")
			}
			img, _, err := readSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := c.DeleteValue(qctx, v); !ok || err != nil {
				t.Fatalf("DeleteValue(%d) = %v, %v", v, ok, err)
			}

			// The differential: anti-matter in an open epoch above W
			// against the checkpointed insert, or nothing at all.
			var ins, del int
			for _, st := range c.Column().Snapshot() {
				ins, del = ins+st.PendingInserts, del+st.PendingDeletes
				if open := st.EpochStats[len(st.EpochStats)-1]; open.Del > 0 && open.ID <= img.Epoch {
					t.Errorf("shard %d: anti-matter in open epoch %d, at or below W = %d", st.Shard, open.ID, img.Epoch)
				}
			}
			if want := map[bool][2]int{true: {1, 1}, false: {0, 0}}[checkpoint]; [2]int{ins, del} != want {
				t.Errorf("pending inserts/deletes = %d/%d, want %d/%d", ins, del, want[0], want[1])
			}
			// The log past the checkpoint: the delete alone (the image
			// holds the insert), or both writes tagged with one epoch;
			// every record tagged above W.
			raw, err := wal.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var tags []int64
			if _, err := wal.Replay(raw, func(r wal.Record) { tags = append(tags, r.B) }); err != nil {
				t.Fatal(err)
			}
			if len(tags) != map[bool]int{true: 1, false: 2}[checkpoint] || tags[0] <= img.Epoch || tags[len(tags)-1] != tags[0] {
				t.Errorf("log tags %v with W = %d", tags, img.Epoch)
			}

			// Crash: the directory as it stands, reopened.
			image := t.TempDir()
			if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			c.Close()
			re, err := Open(image, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if n, _, _ := re.Count(qctx, v, v+1); n != 0 {
				t.Errorf("Count(%d) = %d after reopen, want 0", v, n)
			}
			want := append(brute(nil), d.Values...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			assertAgreesWithScan(t, re, want, 2*d.Domain)
			if err := re.Column().Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
