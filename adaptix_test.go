package adaptix_test

import (
	"context"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"adaptix"
)

// ctx is the uncancellable context the API tests query with.
var ctx = context.Background()

func mustNew(t *testing.T, values []int64, opts ...adaptix.Option) *adaptix.Index {
	t.Helper()
	ix, err := adaptix.New(values, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestPublicAPIQuickstart(t *testing.T) {
	d := adaptix.NewUniqueDataset(10000, 1)
	ix := mustNew(t, d.Values)
	res, err := ix.Count(ctx, 1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3000 {
		t.Fatalf("Count = %d", res.Value)
	}
	res, err = ix.Sum(ctx, 1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((1000 + 3999) * 3000 / 2); res.Value != want {
		t.Fatalf("Sum = %d, want %d", res.Value, want)
	}
	if ix.Method() != adaptix.Crack {
		t.Fatalf("default method = %v, want Crack", ix.Method())
	}
}

// TestPublicAPIMethodsAgree drives all five methods through the one
// handle with the same query stream: identical checksums, whatever the
// physical structure underneath.
func TestPublicAPIMethodsAgree(t *testing.T) {
	d := adaptix.NewUniqueDataset(20000, 2)
	qs := adaptix.UniformQueries(adaptix.SumQuery, d.Domain, 0.01, 5, 32)
	var checksums []int64
	for _, m := range []adaptix.Method{adaptix.Scan, adaptix.Sort, adaptix.Crack, adaptix.AMerge, adaptix.Hybrid} {
		ix := mustNew(t, d.Values, adaptix.WithMethod(m), adaptix.WithShards(4), adaptix.WithSeed(3))
		run := adaptix.Run(ix, qs, 4)
		if run.Engine != m.String() {
			t.Fatalf("run engine %q, want %q", run.Engine, m.String())
		}
		checksums = append(checksums, run.Checksum)
	}
	for i := 1; i < len(checksums); i++ {
		if checksums[i] != checksums[0] {
			t.Fatalf("method %d disagrees: %d vs %d", i, checksums[i], checksums[0])
		}
	}
}

// TestPublicAPIWritesEveryMethod is the unified write surface: every
// method accepts Insert/Delete/Apply through the same handle, and
// queries see the writes immediately.
func TestPublicAPIWritesEveryMethod(t *testing.T) {
	d := adaptix.NewUniqueDataset(1<<13, 6)
	for _, m := range []adaptix.Method{adaptix.Crack, adaptix.AMerge, adaptix.Hybrid, adaptix.Sort, adaptix.Scan} {
		t.Run(m.String(), func(t *testing.T) {
			ix := mustNew(t, d.Values, adaptix.WithMethod(m), adaptix.WithShards(4), adaptix.WithSeed(3))
			before, err := ix.Count(ctx, -1<<40, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 300; i++ {
				if err := ix.Insert(ctx, d.Domain+i); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := ix.Delete(ctx, d.Values[0]); err != nil || !ok {
				t.Fatalf("Delete = (%v, %v), want existing instance deleted", ok, err)
			}
			if deleted, err := ix.Apply(ctx, []adaptix.Op{
				{Value: 1 << 41},
				{Delete: true, Value: 1 << 41},
				{Delete: true, Value: -1 << 41}, // nothing to delete
			}); err != nil || deleted != 1 {
				t.Fatalf("Apply = (%d, %v), want 1 delete", deleted, err)
			}
			after, err := ix.Count(ctx, -1<<42, 1<<42)
			if err != nil {
				t.Fatal(err)
			}
			if after.Value != before.Value+300-1 {
				t.Fatalf("Count after writes = %d, want %d", after.Value, before.Value+300-1)
			}
			// Group-applies fold the epochs into the physical structure
			// without changing answers.
			ix.Maintain()
			if n, err := ix.Count(ctx, -1<<42, 1<<42); err != nil || n.Value != after.Value {
				t.Fatalf("Count after Maintain = (%d, %v), want %d", n.Value, err, after.Value)
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPublicAPIContextSemantics: cancellation before dispatch returns
// ctx.Err() with no refinement side effects, asserted through the
// Stats deltas: no shard cracks or changes its piece count (the build
// may have laid a shard out in pieces already).
func TestPublicAPIContextSemantics(t *testing.T) {
	d := adaptix.NewUniqueDataset(1<<14, 9)
	ix := mustNew(t, d.Values, adaptix.WithShards(4), adaptix.WithSeed(3))
	before := ix.Stats().Shards
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Count(cancelled, 100, 10000); err != context.Canceled {
		t.Fatalf("Count = %v, want Canceled", err)
	}
	if _, err := ix.Sum(cancelled, 100, 10000); err != context.Canceled {
		t.Fatalf("Sum = %v, want Canceled", err)
	}
	if err := ix.Insert(cancelled, 42); err != context.Canceled {
		t.Fatalf("cancelled Insert = %v, want Canceled", err)
	}
	if deleted, err := ix.Delete(cancelled, 1); err != context.Canceled || deleted {
		t.Fatalf("cancelled Delete = (%v, %v), want Canceled", deleted, err)
	}
	if n, err := ix.Apply(cancelled, []adaptix.Op{{Value: 7}}); err != context.Canceled || n != 0 {
		t.Fatalf("cancelled Apply = (%d, %v), want Canceled", n, err)
	}
	for i, st := range ix.Stats().Shards {
		if st.Cracks != 0 || st.Pieces != before[i].Pieces {
			t.Fatalf("cancelled queries refined shard %d: %d pieces before, now %+v", st.Shard, before[i].Pieces, st)
		}
	}
	// A deadline long enough for the query bounds it without effect.
	bounded, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if res, err := ix.Sum(bounded, 100, 10000); err != nil || res.Value != d.TrueSum(100, 10000) {
		t.Fatalf("bounded Sum = (%d, %v)", res.Value, err)
	}
}

// TestPublicAPIOptionValidation: Open-only options are rejected by
// New instead of silently ignored, and unknown methods fail fast.
func TestPublicAPIOptionValidation(t *testing.T) {
	d := adaptix.NewUniqueDataset(1000, 3)
	if _, err := adaptix.New(d.Values, adaptix.WithLogWrites()); err == nil {
		t.Fatal("New accepted a durability option")
	}
	if _, err := adaptix.New(d.Values, adaptix.WithValues(d.Values)); err == nil {
		t.Fatal("New accepted WithValues")
	}
	if _, err := adaptix.New(d.Values, adaptix.WithMethod(adaptix.Method(99))); err == nil {
		t.Fatal("New accepted an unknown method")
	}
	if _, err := adaptix.New(d.Values, adaptix.WithShards(0)); err == nil {
		t.Fatal("New accepted zero shards")
	}
}

func TestPublicAPIStats(t *testing.T) {
	d := adaptix.NewUniqueDataset(20000, 6)
	ix := mustNew(t, d.Values, adaptix.WithShards(4), adaptix.WithSeed(3))
	if _, err := ix.Count(ctx, 1000, 4000); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ctx, 1); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Method != adaptix.Crack {
		t.Fatalf("Stats.Method = %v", st.Method)
	}
	if len(st.Shards) != ix.NumShards() {
		t.Fatalf("Stats has %d shards for %d", len(st.Shards), ix.NumShards())
	}
	if st.Ingest.Writes != 1 {
		t.Fatalf("Stats.Ingest.Writes = %d, want 1", st.Ingest.Writes)
	}
	if ix.Rows() != 20001 {
		t.Fatalf("Rows = %d", ix.Rows())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIQueryTagTrace: the context query tag rides the fan-out
// into the workload recorder, so every captured query made under a tag
// carries that tag's hash, at one shard and at four.
func TestPublicAPIQueryTagTrace(t *testing.T) {
	d := adaptix.NewUniqueDataset(50000, 9)
	tags := []string{"Q1", "Q2", "Q3", "Q4"}
	const perTag = 16
	for _, shards := range []int{1, 4} {
		ix := mustNew(t, d.Values, adaptix.WithShards(shards),
			adaptix.WithWorkloadCapture(adaptix.CaptureOptions{}))
		var wg sync.WaitGroup
		for c, tag := range tags {
			wg.Add(1)
			go func() {
				defer wg.Done()
				qctx := adaptix.WithQueryTag(ctx, tag)
				for _, q := range adaptix.UniformQueries(adaptix.SumQuery, d.Domain, 0.01, uint64(c+1), perTag) {
					want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
					if s, err := ix.Sum(qctx, q.Lo, q.Hi); err != nil || s.Value != want {
						t.Errorf("%d shards, %s: Sum[%d,%d) = %d, %v; want %d", shards, tag, q.Lo, q.Hi, s.Value, err, want)
					}
				}
			}()
		}
		wg.Wait()
		seen := map[uint32]int{}
		for _, r := range ix.WorkloadTrace() {
			seen[r.Tag]++
		}
		for _, tag := range tags {
			h := fnv.New32a()
			h.Write([]byte(tag))
			if n := seen[h.Sum32()]; n != perTag {
				t.Errorf("%d shards: %d captured queries tagged %s, want %d (by hash: %v)", shards, n, tag, perTag, seen)
			}
		}
	}
}

// TestPublicAPIStructuralLog: the in-memory write path group-applies
// and splits without a write log, and logs nothing.
func TestPublicAPIStructuralLog(t *testing.T) {
	d := adaptix.NewUniqueDataset(1<<13, 11)
	iopts := adaptix.IngestOptions{ApplyThreshold: 64, MinShardRows: 256, SplitFactor: 1.5}
	ix := mustNew(t, d.Values, adaptix.WithShards(4), adaptix.WithSeed(3), adaptix.WithIngestOptions(iopts))
	for i := 0; i < 2000; i++ {
		if err := ix.Insert(ctx, int64(i%50)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Maintain()
	st := ix.Stats()
	if st.Ingest.Applied == 0 || st.Ingest.Splits == 0 {
		t.Fatalf("expected group applies and splits, got %+v", st.Ingest)
	}
	if st.Ingest.LoggedWrites != 0 {
		t.Fatalf("an index without a log logged %d writes", st.Ingest.LoggedWrites)
	}
}

func TestPublicAPIDurable(t *testing.T) {
	dir := t.TempDir()
	d := adaptix.NewUniqueDataset(1<<12, 29)
	c, err := adaptix.Open(dir,
		adaptix.WithValues(d.Values),
		adaptix.WithShards(4), adaptix.WithSeed(5),
		adaptix.WithNoSync(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Count(ctx, 100, 900); err != nil || res.Skipped {
		t.Fatalf("Count = (%+v, %v)", res, err)
	}
	if err := c.Insert(ctx, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := adaptix.Open(dir, adaptix.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovered() {
		t.Fatal("reopen did not recover")
	}
	if n, err := re.Count(ctx, 100, 900); err != nil || n.Value != d.TrueCount(100, 900) {
		t.Fatalf("Count = (%d, %v), want %d", n.Value, err, d.TrueCount(100, 900))
	}
	if n, err := re.Count(ctx, 1<<20, 1<<20+1); err != nil || n.Value != 1 {
		t.Fatalf("checkpointed insert lost: Count = (%d, %v), want 1", n.Value, err)
	}
}
