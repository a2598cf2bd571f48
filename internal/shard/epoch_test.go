package shard

import (
	"reflect"
	"sync"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/workload"
)

// TestApplyShardDoesNotLosePendingWrites hammers one column with
// concurrent writers while the main goroutine forces group-apply
// merges continuously; every write must land exactly once and the
// aggregate invariants must hold (run under -race: this is the
// write-during-merge path).
func TestApplyShardDoesNotLosePendingWrites(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 3)
	c := New(d.Values, Options{
		Shards: 4, Seed: 3,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	const writers, perW = 8, 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Fresh values above the domain: every insert is distinct.
				if err := c.Insert(qctx, d.Domain+int64(w*perW+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// The merge forcer keeps applying until every writer is done (one
	// final pass included), so the apply/write overlap happens even on
	// a single-core scheduler.
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()
	applies := 0
	for running := true; running; {
		select {
		case <-writersDone:
			running = false
		default:
		}
		for s := 0; s < c.NumShards(); s++ {
			if _, ok := c.ApplyShard(s); ok {
				applies++
			}
		}
	}
	if applies == 0 {
		t.Fatal("no group-apply merge ever ran during the write storm")
	}
	// One final apply drains what the storm left behind.
	for s := 0; s < c.NumShards(); s++ {
		c.ApplyShard(s)
	}
	if got, want := c.Rows(), len(d.Values)+writers*perW; got != want {
		t.Errorf("Rows() = %d, want %d", got, want)
	}
	n, _, _ := c.Count(qctx, d.Domain, d.Domain+int64(writers*perW))
	if n != int64(writers*perW) {
		t.Errorf("count of inserted band = %d, want %d", n, writers*perW)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsExactMidMerge checks the snapshot-read rule: a
// query racing a group-apply merge sees base part + all visible epochs
// — the answer over a quiet range never wavers, no matter where the
// merge is in its seal/rebuild/publish sequence.
func TestSnapshotReadsExactMidMerge(t *testing.T) {
	d := workload.NewUniqueUniform(1<<15, 7)
	c := New(d.Values, Options{
		Shards: 4, Seed: 7,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	qlo, qhi := int64(1<<14), int64(1<<14+1<<12)
	want, _, _ := c.Sum(qctx, qlo, qhi)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	violations := make([]int, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s, _, _ := c.Sum(qctx, qlo, qhi); s != want {
					violations[r]++
				}
			}
		}(r)
	}
	// Write OUTSIDE the quiet range while merges churn every shard.
	for i := 0; i < 4000; i++ {
		if err := c.Insert(qctx, d.Domain+int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%256 == 0 {
			for s := 0; s < c.NumShards(); s++ {
				c.ApplyShard(s)
			}
		}
	}
	close(stop)
	readers.Wait()
	for r, v := range violations {
		if v != 0 {
			t.Errorf("reader %d saw %d wavering answers mid-merge", r, v)
		}
	}
}

// TestSealEpochThenApplySealed exercises the two-phase structural API
// the ingest coordinator's group-apply runs.
func TestSealEpochThenApplySealed(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 11)
	c := New(d.Values, Options{Shards: 2, Seed: 11, Index: crackindex.Options{Latching: crackindex.LatchPiece}})

	if _, ok := c.SealEpoch(0); ok {
		t.Fatal("SealEpoch sealed an empty open epoch")
	}
	if _, ok := c.ApplySealed(0); ok {
		t.Fatal("ApplySealed found sealed epochs on a fresh column")
	}
	for i := 0; i < 100; i++ {
		if err := c.Insert(qctx, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	se, ok := c.SealEpoch(0)
	if !ok {
		t.Fatal("SealEpoch found nothing with 100 pending inserts")
	}
	if se.Inserts != 100 || se.Deletes != 0 {
		t.Errorf("SealedEpoch counts = %d/%d, want 100/0", se.Inserts, se.Deletes)
	}
	// Writes after the seal land in the next epoch and survive the apply.
	if err := c.Insert(qctx, 0); err != nil {
		t.Fatal(err)
	}
	ap, ok := c.ApplySealed(0)
	if !ok {
		t.Fatal("ApplySealed found no sealed epochs after SealEpoch")
	}
	if ap.Epoch != se.Epoch || ap.Inserts != 100 || ap.Epochs != 1 {
		t.Errorf("Applied = %+v, want watermark %d, 100 inserts, 1 epoch", ap, se.Epoch)
	}
	st := c.Snapshot()[0]
	if st.BaseEpoch != se.Epoch {
		t.Errorf("BaseEpoch = %d, want %d", st.BaseEpoch, se.Epoch)
	}
	if st.PendingInserts != 1 {
		t.Errorf("post-apply pending = %d, want 1 (the post-seal insert)", st.PendingInserts)
	}
	// Value 0: one base instance + one applied insert + one post-seal
	// pending insert.
	if n, _, _ := c.Count(qctx, 0, 1); n != 3 {
		t.Errorf("count(0,1) = %d, want 3", n)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStructuralOpsCutEpochChainsConsistently interleaves writes,
// seals, splits and merges and checks the final logical contents
// against a model: a split or merge must fold every epoch — sealed and
// open — into the successor bases, losing and duplicating nothing.
func TestStructuralOpsCutEpochChainsConsistently(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 5)
	c := New(d.Values, Options{Shards: 3, Seed: 5, Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	rows := len(d.Values)

	r := workload.NewRNG(99)
	for round := 0; round < 6; round++ {
		for i := 0; i < 500; i++ {
			v := r.Int64n(d.Domain)
			if i%3 == 0 {
				if deleted, err := c.DeleteValue(qctx, v); err != nil {
					t.Fatal(err)
				} else if deleted {
					rows--
				}
			} else {
				if err := c.Insert(qctx, v); err != nil {
					t.Fatal(err)
				}
				rows++
			}
		}
		switch round % 3 {
		case 0:
			c.SealEpoch(round % c.NumShards())
		case 1:
			if _, ok := c.SplitShard(0); !ok {
				t.Log("split found nothing to do")
			}
		case 2:
			if c.NumShards() > 1 {
				c.MergeShards(0)
			}
		}
	}
	if got := c.Rows(); got != rows {
		t.Errorf("Rows() = %d, want %d", got, rows)
	}
	if n, _, _ := c.Count(qctx, -1<<40, 1<<40); n != int64(rows) {
		t.Errorf("full-range count = %d, want %d", n, rows)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// After a split or merge the successor chains must be fresh: every
	// pending write was folded into the new bases.
	if _, ok := c.SplitShard(0); ok {
		for _, st := range c.Snapshot()[:2] {
			if st.PendingInserts+st.PendingDeletes != 0 {
				t.Errorf("shard %d: %d pending writes survived a split outside the base",
					st.Shard, st.PendingInserts+st.PendingDeletes)
			}
		}
	}
}

// TestCancellingDeleteProbesNothing: a delete that meets a pending
// insert of its value in the open epoch cancels it without counting the
// value's base instances, so it cracks nothing and adds no boundary; a
// delete with no pending insert to cancel still probes, cracking at v
// and v+1.
func TestCancellingDeleteProbesNothing(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 7) // one unrefined piece
	c := New(d.Values, Options{Shards: 1, Seed: 7,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	before := c.CrackBoundaries()
	const v = 1000 // in the base, not a boundary
	if err := c.Insert(qctx, v); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.DeleteValue(qctx, v); !ok || err != nil {
		t.Fatalf("DeleteValue(%d) = %v, %v; want true", v, ok, err)
	}
	st := c.Snapshot()[0]
	if st.Cracks != 0 || !reflect.DeepEqual(c.CrackBoundaries(), before) {
		t.Errorf("the cancelling delete cracked: Cracks = %d, boundaries %v, before %v", st.Cracks, c.CrackBoundaries(), before)
	}
	if st.PendingInserts+st.PendingDeletes != 0 || st.Rows != len(d.Values) {
		t.Errorf("after the cancel: %d+%d pending writes, %d rows; want none and %d", st.PendingInserts, st.PendingDeletes, st.Rows, len(d.Values))
	}
	// Nothing pending to cancel: the delete takes its base instance.
	if ok, err := c.DeleteValue(qctx, v); !ok || err != nil {
		t.Fatalf("second DeleteValue(%d) = %v, %v; want true", v, ok, err)
	}
	if st := c.Snapshot()[0]; st.Cracks == 0 || st.PendingDeletes != 1 {
		t.Errorf("the base delete: Cracks = %d, %d pending deletes; want a probe and one anti-matter record", st.Cracks, st.PendingDeletes)
	}
	if n, _, _ := c.Count(qctx, v, v+1); n != 0 {
		t.Errorf("Count(%d) = %d after deleting both instances", v, n)
	}
}
