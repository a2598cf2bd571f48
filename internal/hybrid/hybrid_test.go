package hybrid

import (
	"context"
	"sync"
	"testing"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/workload"
)

var _ engine.Engine = (*Index)(nil)

func TestMatchesBruteForce(t *testing.T) {
	d := workload.NewUniqueUniform(20000, 3)
	for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
		ix := New(d.Values, Options{PartitionSize: 1 << 10, Layout: layout})
		qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.03, 9), 60)
		for i, q := range qs {
			if got := qCount(ix, q.Lo, q.Hi).Value; got != q.Hi-q.Lo {
				t.Fatalf("%v query %d: Count = %d, want %d", layout, i, got, q.Hi-q.Lo)
			}
			want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
			if got := qSum(ix, q.Lo, q.Hi).Value; got != want {
				t.Fatalf("%v query %d: Sum = %d, want %d", layout, i, got, want)
			}
		}
		if ix.NumPartitions() != 20 {
			t.Fatalf("partitions = %d", ix.NumPartitions())
		}
		if ix.Extensions() == 0 {
			t.Fatal("no final-partition extensions")
		}
	}
}

func TestDuplicatesAndEdges(t *testing.T) {
	d := workload.NewDuplicates(10000, 300, 7)
	ix := New(d.Values, Options{PartitionSize: 1 << 9})
	for _, r := range [][2]int64{{0, 300}, {50, 51}, {-10, 10}, {290, 400}, {100, 100}, {200, 100}} {
		if got := qCount(ix, r[0], r[1]).Value; got != d.TrueCount(r[0], r[1]) {
			t.Fatalf("Count(%d,%d) = %d, want %d", r[0], r[1], got, d.TrueCount(r[0], r[1]))
		}
		if got := qSum(ix, r[0], r[1]).Value; got != d.TrueSum(r[0], r[1]) {
			t.Fatalf("Sum(%d,%d) = %d", r[0], r[1], got)
		}
	}
}

func TestOverlappingQueriesNoDoubleCounting(t *testing.T) {
	// The hybrid COPIES values into the final partition; overlapping
	// queries must extract only the uncovered gaps.
	d := workload.NewUniqueUniform(10000, 5)
	ix := New(d.Values, Options{PartitionSize: 1 << 9})
	if got := qCount(ix, 2000, 4000).Value; got != 2000 {
		t.Fatalf("first: %d", got)
	}
	// Overlaps [2000,4000) on both sides.
	if got := qCount(ix, 1000, 5000).Value; got != 4000 {
		t.Fatalf("overlapping: %d", got)
	}
	// Fully inside a covered range.
	if got := qCount(ix, 2500, 3500).Value; got != 1000 {
		t.Fatalf("inner: %d", got)
	}
	// Final partition must hold exactly the union [1000,5000).
	if got := ix.FinalSize(); got != 4000 {
		t.Fatalf("final size = %d, want 4000 (no duplicates)", got)
	}
	sum := qSum(ix, 1000, 5000).Value
	if want := (1000 + 4999) * 4000 / 2; sum != int64(want) {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestSnapshotFastPath(t *testing.T) {
	d := workload.NewUniqueUniform(8000, 11)
	ix := New(d.Values, Options{PartitionSize: 1 << 10})
	qSum(ix, 1000, 3000)
	before := ix.SnapshotHits()
	for i := 0; i < 4; i++ {
		qCount(ix, 1200, 2800)
	}
	if ix.SnapshotHits() != before+4 {
		t.Fatalf("snapshot hits %d, want %d", ix.SnapshotHits(), before+4)
	}
}

func TestCheapInitialization(t *testing.T) {
	// The hybrid's first touch must be much cheaper than a full sort:
	// it only copies chunks (no sorting at load, Figure 4).
	d := workload.NewUniqueUniform(200000, 13)
	ix := New(d.Values, Options{PartitionSize: 1 << 12})
	r := qCount(ix, 100, 200)
	if r.Refine == 0 {
		t.Fatal("first query did not charge initialization + crack")
	}
	if ix.NumPartitions() == 0 {
		t.Fatal("no partitions built")
	}
}

func TestConcurrentClients(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 17)
	for _, policy := range []ConflictPolicy{Wait, Skip} {
		ix := New(d.Values, Options{PartitionSize: 1 << 11, OnConflict: policy})
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewUniform(workload.Sum, d.Domain, 0.01, uint64(c*13+5))
				for i := 0; i < 40; i++ {
					q := gen.Next()
					if got := qCount(ix, q.Lo, q.Hi).Value; got != q.Hi-q.Lo {
						errs <- "count mismatch"
						return
					}
					wantS := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
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
	}
}

func TestSkipPolicy(t *testing.T) {
	d := workload.NewUniqueUniform(30000, 19)
	ix := New(d.Values, Options{PartitionSize: 1 << 10, OnConflict: Skip})
	qCount(ix, 0, 10) // init
	ix.lt.Lock(0)
	done := make(chan result, 1)
	go func() { done <- qCount(ix, 5000, 6000) }()
	for ix.SkippedMoves() == 0 {
		time.Sleep(time.Millisecond)
	}
	ix.lt.Unlock()
	r := <-done
	if r.Value != 1000 || !r.Skipped {
		t.Fatalf("skip-path result: %+v", r)
	}
	// A skipped refinement leaves the final partition unchanged for
	// that range; a later uncontended query merges it.
	qCount(ix, 5000, 6000)
	if !ix.snap.Load().covered.Covers(5000, 6000) {
		t.Fatal("range not merged after contention cleared")
	}
}

func TestEmptyAndInvertedRanges(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 29)
	ix := New(d.Values, Options{PartitionSize: 256})
	if qCount(ix, 500, 500).Value != 0 || qCount(ix, 600, 400).Value != 0 {
		t.Fatal("empty/inverted range returned entries")
	}
	if ix.Name() != "hybrid" {
		t.Fatal("bad name")
	}
}

func TestCrackBoundLocal(t *testing.T) {
	// Unit test of the per-partition cracker bookkeeping.
	vals := []int64{9, 2, 7, 4, 1, 8, 3, 6, 5, 0}
	p := &part{arr: cracker.New(vals, cracker.LayoutSplit)}
	pos5 := p.crackBound(5)
	if pos5 != 5 {
		t.Fatalf("crackBound(5) = %d", pos5)
	}
	for i := 0; i < pos5; i++ {
		if p.arr.Value(i) >= 5 {
			t.Fatalf("pos %d value %d >= 5", i, p.arr.Value(i))
		}
	}
	// Repeat is an exact-match lookup.
	if p.crackBound(5) != 5 {
		t.Fatal("repeat crackBound changed")
	}
	// Crack within the upper piece.
	pos8 := p.crackBound(8)
	if pos8 != 8 {
		t.Fatalf("crackBound(8) = %d", pos8)
	}
	for i := pos5; i < pos8; i++ {
		if v := p.arr.Value(i); v < 5 || v >= 8 {
			t.Fatalf("pos %d value %d outside [5,8)", i, v)
		}
	}
	// Below all existing boundaries.
	if pos2 := p.crackBound(2); pos2 != 2 {
		t.Fatalf("crackBound(2) = %d", pos2)
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
