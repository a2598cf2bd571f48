package ingest

import (
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// buildHotColdColumn builds a two-shard column of roughly equal row
// counts and hammers the first shard's range with narrow queries, so
// shard 0 is scorching (Cracks traffic) and shard 1 is ice cold while
// their populations stay balanced.
func buildHotColdColumn(t *testing.T) *shard.Column {
	t.Helper()
	d := workload.NewUniqueUniform(1<<13, 3)
	col := shard.New(d.Values, shard.Options{
		Shards: 2, Seed: 3,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	if col.NumShards() != 2 {
		t.Fatalf("expected 2 shards, got %d", col.NumShards())
	}
	hiEnd := col.Bounds()[0]
	r := workload.NewRNG(77)
	for i := 0; i < 400; i++ {
		lo := r.Int64n(hiEnd - 16)
		col.Count(qctx, lo, lo+1+r.Int64n(16))
	}
	stats := col.Snapshot()
	if stats[0].Cracks == 0 || stats[0].Cracks <= stats[1].Cracks {
		t.Fatalf("setup failed: shard 0 cracks %d vs shard 1 %d", stats[0].Cracks, stats[1].Cracks)
	}
	return col
}

// TestLoadAwareRebalanceSplitsHotShard: with LoadWeight, a shard whose
// refinement traffic dominates splits even though its row count alone
// never would; with pure row-count weights the same layout stays put.
func TestLoadAwareRebalanceSplitsHotShard(t *testing.T) {
	// Control: row-count balancing sees two equal shards, no work.
	cold := New(buildHotColdColumn(t), Options{
		SplitFactor: 1.2, MinShardRows: 128, ApplyThreshold: 1 << 30,
	})
	if splits, merges := cold.Rebalance(); splits != 0 || merges != 0 {
		t.Fatalf("row-count rebalance did %d splits / %d merges on a balanced map", splits, merges)
	}

	col := buildHotColdColumn(t)
	hotEnd := col.Bounds()[0]
	g := New(col, Options{
		SplitFactor: 1.2, LoadWeight: 4, MinShardRows: 128, ApplyThreshold: 1 << 30,
	})
	splits, _ := g.Rebalance()
	if splits == 0 {
		t.Fatal("load-aware rebalance never split the scorching shard")
	}
	// The new cut must subdivide the hot shard's range, not the cold one.
	bounds := col.Bounds()
	cutInHot := false
	for _, b := range bounds {
		if b < hotEnd {
			cutInHot = true
		}
	}
	if !cutInHot {
		t.Errorf("split landed outside the hot range: bounds %v, hot end %d", bounds, hotEnd)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadAwareMergeSparesHotDwarfs: two adjacent dwarf shards merge
// under row-count weights, but stay apart while one of them is still
// taking refinement fire scaled past the merge threshold.
func TestLoadAwareMergeSparesHotDwarfs(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 5)
	mk := func() *shard.Column {
		// Four shards; shards 1+2 will be dwarfed by deleting most of
		// their values through the column write path.
		col := shard.New(d.Values, shard.Options{
			Shards: 4, Seed: 5,
			Index: crackindex.Options{Latching: crackindex.LatchPiece},
		})
		bounds := col.Bounds()
		for v := bounds[0]; v < bounds[2]; v++ {
			if v%8 != 0 { // leave a residue so the shards stay non-empty
				col.DeleteValue(qctx, v)
			}
		}
		for i := col.NumShards() - 1; i >= 0; i-- {
			col.ApplyShard(i)
		}
		return col
	}

	cold := New(mk(), Options{MergeFraction: 0.5, ApplyThreshold: 1 << 30})
	if _, merges := cold.Rebalance(); merges == 0 {
		t.Fatal("row-count rebalance left adjacent dwarf shards unmerged")
	}

	col := mk()
	// Heat the dwarfs with narrow queries before the pass.
	bounds := col.Bounds()
	r := workload.NewRNG(91)
	for i := 0; i < 600; i++ {
		span := bounds[2] - bounds[0]
		lo := bounds[0] + r.Int64n(span-8)
		col.Count(qctx, lo, lo+1+r.Int64n(8))
	}
	g := New(col, Options{MergeFraction: 0.5, LoadWeight: 8, ApplyThreshold: 1 << 30})
	before := col.NumShards()
	g.Rebalance()
	if after := col.NumShards(); after < before {
		t.Errorf("load-aware rebalance merged shards still taking fire: %d -> %d", before, after)
	}
}

// TestSkewedInsertStormSplitsOnline is the acceptance scenario: under
// a concurrent skewed insert storm the rebalancer must perform at
// least one observable shard split while readers keep receiving exact
// answers (they query a range the writers never touch) without ever
// blocking on the rebalance.
func TestSkewedInsertStormSplitsOnline(t *testing.T) {
	const rows = 1 << 14
	d := workload.NewUniqueUniform(rows, 21)
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: 7,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	g := New(col, Options{
		ApplyThreshold: 256, MinShardRows: 512, SplitFactor: 1.5, CheckEvery: 128,
	})
	g.Start()
	before := col.NumShards()

	// The quiet range [rows/2, rows/2+1024) is never written; its
	// count and sum are invariants readers can assert mid-storm.
	qlo, qhi := int64(rows/2), int64(rows/2+1024)
	wantCount := d.TrueCount(qlo, qhi)
	wantSum := d.TrueSum(qlo, qhi)

	var readers, writers sync.WaitGroup
	stopReaders := make(chan struct{})
	for rdr := 0; rdr < 4; rdr++ {
		readers.Add(1)
		go func(rdr int) {
			defer readers.Done()
			r := workload.NewRNG(uint64(900 + rdr))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if n, _, _ := col.Count(qctx, qlo, qhi); n != wantCount {
					t.Errorf("mid-storm Count[%d,%d) = %d, want %d", qlo, qhi, n, wantCount)
					return
				}
				if s, _, _ := col.Sum(qctx, qlo, qhi); s != wantSum {
					t.Errorf("mid-storm Sum[%d,%d) = %d, want %d", qlo, qhi, s, wantSum)
					return
				}
				// A roaming broad query keeps the fan-out path hot.
				lo := r.Int64n(int64(rows))
				col.Sum(qctx, lo, lo+int64(rows/8))
			}
		}(rdr)
	}

	// 8 writers hammer one narrow value band far from the quiet range.
	var inserted atomic.Int64
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 4000; i++ {
				if err := g.Insert(qctx, int64(i%97)); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}

	writers.Wait()
	close(stopReaders)
	readers.Wait()
	g.Close()

	if g.Stats().Splits == 0 {
		t.Fatalf("no shard split observed (shards %d -> %d, stats %+v)",
			before, col.NumShards(), g.Stats())
	}
	if col.NumShards() <= before {
		t.Errorf("shard count %d did not grow from %d", col.NumShards(), before)
	}
	// Quiesced exactness: storm values plus untouched initial data.
	if n, _, _ := col.Count(qctx, -1<<40, 1<<40); n != int64(rows)+inserted.Load() {
		t.Errorf("final Count = %d, want %d", n, int64(rows)+inserted.Load())
	}
	if n, _, _ := col.Count(qctx, qlo, qhi); n != wantCount {
		t.Errorf("final quiet-range Count = %d, want %d", n, wantCount)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}
