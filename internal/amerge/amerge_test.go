package amerge

import (
	"context"
	"sync"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/txn"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

var _ engine.Engine = (*Index)(nil)

func TestMatchesBruteForce(t *testing.T) {
	d := workload.NewUniqueUniform(20000, 3)
	ix := New(d.Values, Options{RunSize: 1 << 10})
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.03, 9), 60)
	for i, q := range qs {
		if got := qCount(ix, q.Lo, q.Hi).Value; got != q.Hi-q.Lo {
			t.Fatalf("query %d: Count = %d, want %d", i, got, q.Hi-q.Lo)
		}
		want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
		if got := qSum(ix, q.Lo, q.Hi).Value; got != want {
			t.Fatalf("query %d: Sum = %d, want %d", i, got, want)
		}
	}
	if ix.NumRuns() != 20 {
		t.Fatalf("runs = %d, want 20", ix.NumRuns())
	}
	if ix.MergeSteps() == 0 || ix.MovedRecords() == 0 {
		t.Fatal("no merging happened")
	}
	if err := ix.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatesAndEdges(t *testing.T) {
	d := workload.NewDuplicates(10000, 300, 7)
	ix := New(d.Values, Options{RunSize: 1 << 9})
	for _, r := range [][2]int64{{0, 300}, {50, 51}, {-10, 10}, {290, 400}, {100, 100}, {200, 100}} {
		if got := qCount(ix, r[0], r[1]).Value; got != d.TrueCount(r[0], r[1]) {
			t.Fatalf("Count(%d,%d) = %d, want %d", r[0], r[1], got, d.TrueCount(r[0], r[1]))
		}
		if got := qSum(ix, r[0], r[1]).Value; got != d.TrueSum(r[0], r[1]) {
			t.Fatalf("Sum(%d,%d) = %d", r[0], r[1], got)
		}
	}
}

func TestConvergenceToFinalPartition(t *testing.T) {
	d := workload.NewUniqueUniform(8000, 5)
	ix := New(d.Values, Options{RunSize: 1 << 9})
	// Query the same range repeatedly: after the first, it must be
	// served from the snapshot without latches.
	qSum(ix, 1000, 3000)
	hitsBefore := ix.SnapshotHits()
	for i := 0; i < 5; i++ {
		if got := qSum(ix, 1000, 3000).Value; got != (1000+2999)*2000/2 {
			t.Fatalf("iteration %d wrong", i)
		}
	}
	if ix.SnapshotHits() != hitsBefore+5 {
		t.Fatalf("snapshot hits = %d, want %d", ix.SnapshotHits(), hitsBefore+5)
	}
	// Sub-ranges of a merged range are also covered.
	qCount(ix, 1500, 2000)
	if ix.SnapshotHits() != hitsBefore+6 {
		t.Fatal("sub-range not served from snapshot")
	}
	// The runs no longer hold the merged range.
	for r := 1; r <= ix.NumRuns(); r++ {
		if c, _ := ix.Tree().AggregateRange(int32(r), 1000, 3000); c != 0 {
			t.Fatalf("run %d still holds merged range", r)
		}
	}
	if ix.Tree().PartitionCount(0) != 2000 {
		t.Fatalf("final partition has %d", ix.Tree().PartitionCount(0))
	}
}

func TestMergeBudgetEarlyTermination(t *testing.T) {
	d := workload.NewUniqueUniform(10000, 11)
	ix := New(d.Values, Options{RunSize: 1 << 9, MergeBudget: 100})
	// A wide query cannot merge everything in one step...
	r := qCount(ix, 0, 5000)
	if r.Value != 5000 {
		t.Fatalf("budgeted Count = %d", r.Value)
	}
	if moved := ix.MovedRecords(); moved > 100 {
		t.Fatalf("budget exceeded: %d", moved)
	}
	// ...but repeated queries converge incrementally and stay correct.
	for i := 0; i < 60; i++ {
		if got := qCount(ix, 0, 5000).Value; got != 5000 {
			t.Fatalf("iteration %d: %d", i, got)
		}
	}
	if ix.Tree().PartitionCount(0) != 5000 {
		t.Fatalf("not converged: final has %d", ix.Tree().PartitionCount(0))
	}
	if err := ix.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstQueryPaysRunGeneration(t *testing.T) {
	d := workload.NewUniqueUniform(100000, 13)
	ix := New(d.Values, Options{RunSize: 1 << 12})
	r := qCount(ix, 100, 200)
	if r.Refine == 0 {
		t.Fatal("first query did not charge run generation")
	}
	r2 := qCount(ix, 100, 200)
	if r2.Refine != 0 {
		t.Fatal("second identical query still refining")
	}
}

func TestConcurrentClients(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 17)
	for _, policy := range []ConflictPolicy{Wait, Skip} {
		ix := New(d.Values, Options{RunSize: 1 << 11, OnConflict: policy})
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewUniform(workload.Sum, d.Domain, 0.01, uint64(c*31+7))
				for i := 0; i < 40; i++ {
					q := gen.Next()
					wantC := q.Hi - q.Lo
					wantS := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
					if got := qCount(ix, q.Lo, q.Hi).Value; got != wantC {
						errs <- "count mismatch"
						return
					}
					if got := qSum(ix, q.Lo, q.Hi).Value; got != wantS {
						errs <- "sum mismatch"
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("policy %v: %s", policy, e)
		}
		if err := ix.Tree().Validate(); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

func TestSkipPolicyCountsSkips(t *testing.T) {
	d := workload.NewUniqueUniform(30000, 19)
	ix := New(d.Values, Options{RunSize: 1 << 10, OnConflict: Skip})
	qCount(ix, 0, 10) // init
	// Hold the index latch as a concurrent merge would.
	ix.lt.Lock(0)
	done := make(chan result, 1)
	go func() { done <- qCount(ix, 5000, 6000) }()
	// Wait until the query has decided to skip (counted before its
	// read latch), then release so its read can proceed.
	for ix.SkippedMerges() == 0 {
		time.Sleep(time.Millisecond)
	}
	ix.lt.Unlock()
	r := <-done
	if r.Value != 1000 {
		t.Fatalf("skip-path Count = %d", r.Value)
	}
	if !r.Skipped {
		t.Fatal("result not marked skipped")
	}
}

func TestStructuralLoggingAndSystemTxns(t *testing.T) {
	log := wal.New(nil)
	tm := txn.NewManager()
	d := workload.NewUniqueUniform(5000, 23)
	ix := New(d.Values, Options{RunSize: 1 << 9, Log: log, TxnMgr: tm})
	qSum(ix, 1000, 2000)
	var runs, merges int
	for _, r := range log.Records() {
		switch r.Kind {
		case wal.RunCreated:
			runs++
		case wal.MergeStep:
			merges++
		}
	}
	if runs != ix.NumRuns() {
		t.Fatalf("logged %d runs, index has %d", runs, ix.NumRuns())
	}
	if merges == 0 {
		t.Fatal("no merge steps logged")
	}
	started, finished := tm.Counts()
	if started == 0 || started != finished {
		t.Fatalf("system txns: started=%d finished=%d", started, finished)
	}
}

func TestEmptyAndInvertedRanges(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 29)
	ix := New(d.Values, Options{RunSize: 256})
	if qCount(ix, 500, 500).Value != 0 || qCount(ix, 600, 400).Value != 0 {
		t.Fatal("empty/inverted range returned entries")
	}
	if qSum(ix, 500, 500).Value != 0 {
		t.Fatal("empty range sum nonzero")
	}
}

func TestNameAndAccessors(t *testing.T) {
	ix := New([]int64{1, 2, 3}, Options{})
	if ix.Name() != "amerge" {
		t.Fatal("bad name")
	}
	if ix.NumRuns() != 0 {
		t.Fatal("runs before init")
	}
	qCount(ix, 0, 10)
	if ix.NumRuns() != 1 {
		t.Fatalf("runs = %d", ix.NumRuns())
	}
}

// result is one query's answer with its cost record.
type result struct {
	Value int64
	crackindex.OpStats
}

// qCount / qSum drive the context-aware Engine surface with
// context.Background(), the uncancellable fast path the tests measure.
func qCount(e engine.Engine, lo, hi int64) result {
	v, st, _ := e.Count(context.Background(), lo, hi)
	return result{v, st}
}

func qSum(e engine.Engine, lo, hi int64) result {
	v, st, _ := e.Sum(context.Background(), lo, hi)
	return result{v, st}
}
