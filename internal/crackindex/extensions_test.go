package crackindex

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"adaptix/internal/workload"
)

// --- Group cracking (§7 "dynamic algorithms" extension) ---

func TestGroupCrackingCorrectness(t *testing.T) {
	d := workload.NewUniqueUniform(20000, 3)
	ix := New(d.Values, Options{Latching: LatchPiece, GroupCracking: true})
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.02, 9), 80)
	for i, q := range qs {
		if got, _ := ix.Count(q.Lo, q.Hi); got != q.Hi-q.Lo {
			t.Fatalf("query %d: Count = %d, want %d", i, got, q.Hi-q.Lo)
		}
		want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
		if got, _ := ix.Sum(q.Lo, q.Hi); got != want {
			t.Fatalf("query %d: Sum = %d, want %d", i, got, want)
		}
	}
}

func TestGroupCrackingConcurrent(t *testing.T) {
	d := workload.NewUniqueUniform(100000, 4)
	ix := New(d.Values, Options{Latching: LatchPiece, GroupCracking: true})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewUniform(workload.Sum, d.Domain, 0.005, uint64(c*7+1))
			for i := 0; i < 80; i++ {
				q := gen.Next()
				if got, _ := ix.Count(q.Lo, q.Hi); got != q.Hi-q.Lo {
					errs <- "count mismatch"
					return
				}
				want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
				if got, _ := ix.Sum(q.Lo, q.Hi); got != want {
					errs <- "sum mismatch"
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// All boundaries must still be physically respected.
	for _, b := range ix.BoundaryPositions() {
		for i := 0; i < b.Pos; i++ {
			if ix.arr.Value(i) >= b.Value {
				t.Fatalf("boundary %d violated at pos %d", b.Value, i)
			}
		}
	}
}

func TestGroupCrackingSatisfiesWaiters(t *testing.T) {
	// Force a queue: many goroutines crack distinct bounds inside the
	// same (single, uncracked) piece. With group cracking, some of
	// those bounds should be satisfied by another query's group pass.
	d := workload.NewUniqueUniform(200000, 5)
	ix := New(d.Values, Options{Latching: LatchPiece, GroupCracking: true})
	ix.Count(0, 1) // initialize
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := int64(10000 * (i + 1))
			if got, _ := ix.Count(lo, lo+5000); got != 5000 {
				panic("count mismatch")
			}
		}(i)
	}
	wg.Wait()
	t.Logf("group cracks: %d, grouped bounds: %d",
		ix.Stats().GroupCracks.Load(), ix.Stats().GroupedBounds.Load())
	// The group pass may or may not trigger depending on scheduling;
	// correctness (above) is mandatory either way. If it triggered,
	// counters must be consistent.
	if g, b := ix.Stats().GroupCracks.Load(), ix.Stats().GroupedBounds.Load(); g > 0 && b == 0 {
		t.Fatal("group cracks recorded without grouped bounds")
	}
}

func TestCrackMultiMatchesRepeatedCrackInTwo(t *testing.T) {
	f := func(seed uint64, rawPivots []int64) bool {
		d := workload.NewDuplicates(2000, 500, seed)
		if len(rawPivots) > 8 {
			rawPivots = rawPivots[:8]
		}
		var pivots []int64
		seen := map[int64]bool{}
		for _, p := range rawPivots {
			v := p % 500
			if v < 0 {
				v = -v
			}
			if !seen[v] {
				seen[v] = true
				pivots = append(pivots, v)
			}
		}
		ixGroup := New(d.Values, Options{Latching: LatchNone})
		ixPlain := New(d.Values, Options{Latching: LatchNone})
		for _, p := range pivots {
			a, _ := ixGroup.Count(0, p)
			b, _ := ixPlain.Count(0, p)
			if a != b || a != d.TrueCount(0, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteValueNearSentinel(t *testing.T) {
	// A delete's existence probe (shard.DeleteValue -> baseCount) counts
	// [v, v+1); for v = maxKey-1 the upper bound is the maxKey sentinel,
	// which must resolve to the array end instead of looping in bound
	// re-determination.
	for _, mode := range []LatchMode{LatchPiece, LatchColumn, LatchNone} {
		ix := New([]int64{math.MaxInt64 - 1, 5, -3}, Options{Latching: mode})
		if n, _ := ix.Count(math.MaxInt64-1, math.MaxInt64); n != 1 {
			t.Fatalf("mode %v: Count[maxKey-1, maxKey) = %d, want 1", mode, n)
		}
		if n, _ := ix.Count(math.MaxInt64-2, math.MaxInt64-1); n != 0 {
			t.Fatalf("mode %v: Count just below the top value = %d, want 0", mode, n)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}
