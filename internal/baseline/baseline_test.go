package baseline

import (
	"context"
	"sync"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/workload"
)

// Compile-time interface checks.
var (
	_ engine.Engine = (*Scan)(nil)
	_ engine.Engine = (*FullSort)(nil)
)

func TestScanMatchesBruteForce(t *testing.T) {
	d := workload.NewUniqueUniform(5000, 3)
	s := NewScan(d.Values)
	if s.Name() != "scan" {
		t.Fatal("bad name")
	}
	for _, r := range [][2]int64{{0, 5000}, {100, 200}, {-10, 10}, {4999, 6000}, {300, 300}} {
		if got := qCount(s, r[0], r[1]).Value; got != d.TrueCount(r[0], r[1]) {
			t.Fatalf("Count(%d,%d) = %d", r[0], r[1], got)
		}
		if got := qSum(s, r[0], r[1]).Value; got != d.TrueSum(r[0], r[1]) {
			t.Fatalf("Sum(%d,%d) = %d", r[0], r[1], got)
		}
	}
}

func TestFullSortMatchesBruteForce(t *testing.T) {
	d := workload.NewDuplicates(8000, 700, 5)
	f := NewFullSort(d.Values)
	if f.Name() != "sort" {
		t.Fatal("bad name")
	}
	for _, r := range [][2]int64{{0, 700}, {100, 200}, {-5, 5}, {699, 700}, {50, 50}} {
		if got := qCount(f, r[0], r[1]).Value; got != d.TrueCount(r[0], r[1]) {
			t.Fatalf("Count(%d,%d) = %d", r[0], r[1], got)
		}
		if got := qSum(f, r[0], r[1]).Value; got != d.TrueSum(r[0], r[1]) {
			t.Fatalf("Sum(%d,%d) = %d", r[0], r[1], got)
		}
	}
}

func TestFullSortBuildsExactlyOnceAndCharges(t *testing.T) {
	d := workload.NewUniqueUniform(200000, 7)
	f := NewFullSort(d.Values)
	r1 := qCount(f, 10, 20)
	if r1.Refine == 0 {
		t.Fatal("first query did not charge the index build")
	}
	r2 := qCount(f, 10, 20)
	if r2.Refine != 0 || r2.Wait != 0 {
		t.Fatalf("second query paid again: %+v", r2)
	}
}

func TestFullSortConcurrentFirstQueries(t *testing.T) {
	d := workload.NewUniqueUniform(300000, 9)
	f := NewFullSort(d.Values)
	const clients = 8
	var wg sync.WaitGroup
	results := make([]result, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = qCount(f, 1000, 2000)
		}(c)
	}
	wg.Wait()
	var builders int
	for _, r := range results {
		if r.Value != 1000 {
			t.Fatalf("wrong count %d", r.Value)
		}
		if r.Refine > 0 {
			builders++
		}
	}
	if builders != 1 {
		t.Fatalf("index built by %d clients, want exactly 1", builders)
	}
	// FullSort does not modify the base column.
	fresh := workload.NewUniqueUniform(300000, 9)
	for i, v := range d.Values {
		if v != fresh.Values[i] {
			t.Fatal("base column mutated")
		}
	}
}

func TestScanIsStateless(t *testing.T) {
	d := workload.NewUniqueUniform(10000, 11)
	s := NewScan(d.Values)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if qCount(s, 100, 5000).Value != 4900 {
					panic("scan mismatch")
				}
			}
		}()
	}
	wg.Wait()
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
