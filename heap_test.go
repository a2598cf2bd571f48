package adaptix_test

import (
	"context"
	"runtime"
	"testing"

	"adaptix"
	"adaptix/internal/workload"
)

// heapAlloc returns HeapAlloc after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexHeapPerRow: a product index stores each row's value and no
// row id. Over a 1 Mi-row, 4-shard column the post-GC heap grows by at
// most 8.5 B per row — the 8 B value plus the table of contents and the
// shard bookkeeping — after New, and again after a write burst that
// Maintain group-applies, whose rebuilds must not bring a row-id column
// (4 B per row) back.
func TestIndexHeapPerRow(t *testing.T) {
	const rows, maxPerRow = 1 << 20, 8.5
	ds := workload.NewUniqueUniform(rows, 17)
	base := heapAlloc()
	ix, err := adaptix.New(ds.Values, adaptix.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	perRow := func(step string) {
		t.Helper()
		got := (float64(heapAlloc()) - float64(base)) / float64(ix.Rows())
		t.Logf("after %s: %.2f B/row", step, got)
		if got > maxPerRow {
			t.Fatalf("after %s: the index holds %.2f B per row, want <= %.1f", step, got, maxPerRow)
		}
	}
	perRow("New")
	// Inserts anywhere; deletes cycle over 256 keys, as the benchmark's
	// write mix does: every delete cracks at its key, and distinct keys
	// would grow the table of contents instead of testing the arrays.
	ctx := context.Background()
	r := workload.NewRNG(3)
	for i := range 1 << 15 {
		if i%4 == 3 {
			if _, err := ix.Delete(ctx, int64(i/4%256)*(rows/256)); err != nil {
				t.Fatal(err)
			}
		} else if err := ix.Insert(ctx, r.Int64n(rows)); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		if ix.Maintain() == 0 {
			break
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	perRow("a write burst and Maintain")
	runtime.KeepAlive(ds)
}
