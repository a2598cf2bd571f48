package sideways

import (
	"sync"
	"testing"

	"adaptix/internal/workload"
)

func twoColumns(n int) (head, tail []int64, ref func(lo, hi int64) int64) {
	h := workload.NewUniqueUniform(n, 1).Values
	t := workload.NewUniqueUniform(n, 2).Values
	return h, t, func(lo, hi int64) int64 {
		var s int64
		for i, v := range h {
			if v >= lo && v < hi {
				s += t[i]
			}
		}
		return s
	}
}

func TestSumTargetMatchesBruteForce(t *testing.T) {
	head, tail, ref := twoColumns(8000)
	m := NewMap(head, tail, Options{})
	qs := workload.Fixed(workload.NewUniform(workload.Sum, 8000, 0.05, 7), 50)
	for i, q := range qs {
		got, _ := m.SumTargetWhere(q.Lo, q.Hi)
		if want := ref(q.Lo, q.Hi); got != want {
			t.Fatalf("query %d: %d, want %d", i, got, want)
		}
	}
	if m.Cracks() == 0 || m.Boundaries() == 0 {
		t.Fatal("map did not self-organize")
	}
}

func TestCountWhere(t *testing.T) {
	head, tail, _ := twoColumns(5000)
	m := NewMap(head, tail, Options{})
	if n, _ := m.CountWhere(1000, 3000); n != 2000 {
		t.Fatalf("CountWhere = %d", n)
	}
	// Repeat: exact-match boundaries, no further cracks.
	c := m.Cracks()
	if n, _ := m.CountWhere(1000, 3000); n != 2000 {
		t.Fatal("repeat wrong")
	}
	if m.Cracks() != c {
		t.Fatal("repeat re-cracked")
	}
}

func TestEdgeRanges(t *testing.T) {
	head, tail, ref := twoColumns(1000)
	m := NewMap(head, tail, Options{})
	for _, r := range [][2]int64{{0, 1000}, {-10, 2000}, {500, 500}, {700, 300}, {999, 1000}} {
		got, _ := m.SumTargetWhere(r[0], r[1])
		if want := ref(r[0], r[1]); got != want {
			t.Fatalf("Sum(%d,%d) = %d, want %d", r[0], r[1], got, want)
		}
	}
}

func TestLazyInitialization(t *testing.T) {
	head, tail, _ := twoColumns(1000)
	m := NewMap(head, tail, Options{})
	if m.Initialized() {
		t.Fatal("initialized before first query")
	}
	_, st := m.SumTargetWhere(10, 20)
	if !m.Initialized() || st.Refine == 0 {
		t.Fatal("first query should materialize and charge the map")
	}
}

func TestConcurrentClients(t *testing.T) {
	head, tail, ref := twoColumns(30000)
	for _, policy := range []ConflictPolicy{Wait, Skip} {
		m := NewMap(head, tail, Options{OnConflict: policy})
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewUniform(workload.Sum, 30000, 0.01, uint64(c*5+1))
				for i := 0; i < 40; i++ {
					q := gen.Next()
					if got, _ := m.SumTargetWhere(q.Lo, q.Hi); got != ref(q.Lo, q.Hi) {
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

// TestAdaptiveConvergence: the rows a query touches (partitioned plus
// scanned) over the last 32 of 128 queries are under half of those over
// the first 32. It counts rows, not nanoseconds, so load cannot flip it.
func TestAdaptiveConvergence(t *testing.T) {
	head, tail, _ := twoColumns(100000)
	m := NewMap(head, tail, Options{})
	var first, last int64
	qs := workload.Fixed(workload.NewUniform(workload.Sum, 100000, 0.01, 9), 128)
	for i, q := range qs {
		_, st := m.SumTargetWhere(q.Lo, q.Hi)
		if i < 32 {
			first += st.Touched
		} else if i >= 96 {
			last += st.Touched
		}
	}
	if last*2 >= first {
		t.Fatalf("no convergence: first %d, last %d", first, last)
	}
}

func TestRegistry(t *testing.T) {
	head, tail, _ := twoColumns(100)
	r := NewRegistry()
	a := r.GetOrCreate("A", "B", head, tail, Options{})
	b := r.GetOrCreate("A", "B", nil, nil, Options{})
	if a != b || r.Len() != 1 {
		t.Fatal("registry duplicate")
	}
	r.GetOrCreate("A", "C", head, tail, Options{})
	if r.Len() != 2 {
		t.Fatal("second map not registered")
	}
}

func TestMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for misaligned columns")
		}
	}()
	NewMap([]int64{1, 2}, []int64{1}, Options{})
}
