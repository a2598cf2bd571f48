package adaptix_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"adaptix"
	"adaptix/internal/crackindex"
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

// TestNewRejectsLatchNone: an Index promises safe concurrent use, and
// its write path's maintenance walks a shard's pieces while queries
// crack them, so a configuration without latches is refused, by New and
// by Open alike.
func TestNewRejectsLatchNone(t *testing.T) {
	d := adaptix.NewUniqueDataset(1000, 3)
	none := adaptix.WithCrackOptions(adaptix.CrackOptions{Latching: crackindex.LatchNone})
	if ix, err := adaptix.New(d.Values, none); err == nil {
		ix.Close()
		t.Fatal("New accepted LatchNone")
	}
	if ix, err := adaptix.Open(t.TempDir(), adaptix.WithValues(d.Values), adaptix.WithNoSync(), none); err == nil {
		ix.Close()
		t.Fatal("Open accepted LatchNone")
	}
	for _, mode := range []crackindex.LatchMode{adaptix.LatchPiece, adaptix.LatchColumn} {
		mustNew(t, d.Values, adaptix.WithCrackOptions(adaptix.CrackOptions{Latching: mode}))
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

func TestPublicAPIColumnStore(t *testing.T) {
	tab := adaptix.NewTable("R")
	a := adaptix.NewUniqueDataset(5000, 3)
	bd := adaptix.NewUniqueDataset(5000, 4)
	if err := tab.AddColumn("A", a.Values); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("B", bd.Values); err != nil {
		t.Fatal(err)
	}
	ex := adaptix.NewExecutor(tab, adaptix.CrackOptions{Latching: adaptix.LatchPiece})
	got, _, err := ex.SumFetchWhere("B", "A", 100, 900)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i, v := range a.Values {
		if v >= 100 && v < 900 {
			want += bd.Values[i]
		}
	}
	if got != want {
		t.Fatalf("SumFetchWhere = %d, want %d", got, want)
	}
}

func TestPublicAPITransactions(t *testing.T) {
	tm := adaptix.NewTxnManager()
	u := tm.Begin(0) // user
	if err := u.LockHierarchy([]string{"db", "db/R", "db/R/A"}, adaptix.XLk); err != nil {
		t.Fatal(err)
	}
	if !tm.Locks().HasConflicting("db/R/A", adaptix.SLk, 0) {
		t.Fatal("lock invisible")
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIQueryTagTrace: trace events carry the context query tag
// through the unified API, so the Figure 8 timelines keep their
// labels.
func TestPublicAPIQueryTagTrace(t *testing.T) {
	d := adaptix.NewUniqueDataset(50000, 9)
	var mu sync.Mutex
	tags := map[string]int{}
	ix := mustNew(t, d.Values, adaptix.WithShards(1), adaptix.WithCrackOptions(adaptix.CrackOptions{
		Latching: adaptix.LatchPiece,
		Tracer: func(e adaptix.TraceEvent) {
			mu.Lock()
			tags[e.Query]++
			mu.Unlock()
		},
	}))
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qctx := adaptix.WithQueryTag(ctx, map[int]string{0: "Q1", 1: "Q2", 2: "Q3", 3: "Q4"}[c])
			qs := adaptix.UniformQueries(adaptix.SumQuery, d.Domain, 0.01, uint64(c+1), 16)
			for _, q := range qs {
				want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
				if s, err := ix.Sum(qctx, q.Lo, q.Hi); err != nil || s.Value != want {
					panic("sum mismatch")
				}
			}
		}(c)
	}
	wg.Wait()
	for _, tag := range []string{"Q1", "Q2", "Q3", "Q4"} {
		if tags[tag] == 0 {
			t.Fatalf("no trace events tagged %s (saw %v)", tag, tags)
		}
	}
}

// TestPublicAPIStructuralLog checks where a write log may go on the
// write path: New rejects one as IngestOptions.Log (an in-memory index
// has no reader for a write log, which would only grow), and the write
// path group-applies and splits without one.
func TestPublicAPIStructuralLog(t *testing.T) {
	d := adaptix.NewUniqueDataset(1<<13, 11)
	iopts := adaptix.IngestOptions{ApplyThreshold: 64, MinShardRows: 256, SplitFactor: 1.5}
	sink, err := adaptix.NewWALFileSink(t.TempDir(), adaptix.WALSinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	withLog := iopts
	withLog.Log = sink
	if ix, err := adaptix.New(d.Values, adaptix.WithIngestOptions(withLog)); err == nil {
		ix.Close()
		t.Fatal("New accepted IngestOptions.Log")
	}
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
