package ingest

import (
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

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
