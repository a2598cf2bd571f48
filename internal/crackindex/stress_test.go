package crackindex

import (
	"sync"
	"testing"

	"adaptix/internal/cracker"
	"adaptix/internal/latch"
	"adaptix/internal/workload"
)

// TestValidateAfterSequentialWorkload checks every structural
// invariant after a long single-threaded workload.
func TestValidateAfterSequentialWorkload(t *testing.T) {
	d := workload.NewDuplicates(30000, 5000, 3)
	for _, opts := range []Options{
		{Latching: LatchNone},
		{Latching: LatchPiece},
		{Latching: LatchPiece, GroupCracking: true},
		{Latching: LatchColumn, Layout: cracker.LayoutPairs},
	} {
		// At the default threshold only the first cracks of the 30000
		// rows add quantile cuts; at 64 nearly every crack does.
		for _, auxMin := range []int{auxMinPiece, 64} {
			ix := New(d.Values, opts)
			ix.auxMin = auxMin
			qs := workload.Fixed(workload.NewUniform(workload.Sum, 5000, 0.01, 5), 200)
			for _, q := range qs {
				if got, _ := ix.Sum(q.Lo, q.Hi); got != d.TrueSum(q.Lo, q.Hi) {
					t.Fatalf("%+v auxMin %d: sum mismatch", opts, auxMin)
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%+v auxMin %d: %v", opts, auxMin, err)
			}
		}
	}
}

// TestValidateUninitialized: Validate on a never-queried index is a
// no-op.
func TestValidateUninitialized(t *testing.T) {
	ix := New([]int64{3, 1, 2}, Options{})
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStressAllOperationsConcurrent hammers one index from many
// goroutines with every query type — counts, sums, rowID selects — then
// validates all structural invariants and the final contents. Run with
// -race.
func TestStressAllOperationsConcurrent(t *testing.T) {
	d := workload.NewUniqueUniform(60000, 9)
	for _, opts := range []Options{
		{Latching: LatchPiece},
		{Latching: LatchPiece, GroupCracking: true, ParallelBounds: true},
		{Latching: LatchPiece, OnConflict: Skip},
	} {
		opts := opts
		ix := New(d.Values, opts)
		const clients = 8
		var wg sync.WaitGroup
		errs := make(chan string, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewUniform(workload.Sum, 50000, 0.01, uint64(c*11+3))
				for i := 0; i < 60; i++ {
					q := gen.Next()
					switch i % 3 {
					case 0:
						if got, _ := ix.Count(q.Lo, q.Hi); got != q.Hi-q.Lo {
							errs <- "count mismatch"
							return
						}
					case 1:
						want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
						if got, _ := ix.Sum(q.Lo, q.Hi); got != want {
							errs <- "sum mismatch"
							return
						}
					case 2:
						ids, _ := ix.SelectRowIDs(q.Lo, q.Hi)
						if int64(len(ids)) != q.Hi-q.Lo {
							errs <- "select size mismatch"
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%+v: %s", opts, e)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if n, _ := ix.Count(0, 70000); n != 60000 {
			t.Fatalf("%+v: final count %d", opts, n)
		}
	}
}

// TestStochasticCrackingBoundsSequentialWorst: under a strictly
// sequential sweep, cracking at the query bounds alone leaves one huge
// uncracked piece ahead of the sweep — 95% of the column here, the
// sweep covering 5% of the domain. The quantile cuts every crack of a
// large piece adds must bound the largest piece at half the column,
// whatever the sweep asked for.
func TestStochasticCrackingBoundsSequentialWorst(t *testing.T) {
	d := workload.NewUniqueUniform(100000, 17)
	for _, mode := range []LatchMode{LatchNone, LatchColumn, LatchPiece} {
		ix := New(d.Values, Options{Latching: mode})
		gen := workload.NewSequential(workload.Count, d.Domain, 0.001)
		for i := 0; i < 50; i++ {
			q := gen.Next()
			if got, _ := ix.Count(q.Lo, q.Hi); got != q.Hi-q.Lo {
				t.Fatal("count mismatch")
			}
		}
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		if largest := ix.Profile().MaxPiece; largest > len(d.Values)/2 {
			t.Fatalf("mode %v: largest piece %d of %d rows after the sweep", mode, largest, len(d.Values))
		}
	}
}

// TestStochasticStatsCounted ensures the auxiliary cuts are counted,
// and are the only boundaries beyond the query bounds.
func TestStochasticStatsCounted(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 19)
	ix := New(d.Values, Options{Latching: LatchPiece})
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.01, 7), 40)
	for _, q := range qs {
		ix.Count(q.Lo, q.Hi)
	}
	aux := ix.Stats().AuxCuts.Load()
	if aux == 0 {
		t.Fatal("no auxiliary cuts recorded")
	}
	if got := ix.Stats().Boundaries.Load(); got > aux+2*int64(len(qs)) {
		t.Fatalf("%d boundaries from %d queries and %d auxiliary cuts", got, len(qs), aux)
	}
}

// TestWaiterQueueSchedulingUnderLoad exercises the middle-first grant
// path heavily: all clients crack inside one piece so the sorted
// waiter queue and redetermination machinery are under constant churn.
func TestWaiterQueueSchedulingUnderLoad(t *testing.T) {
	d := workload.NewUniqueUniform(80000, 23)
	for _, pol := range []latch.Policy{latch.MiddleFirst, latch.FIFO} {
		ix := New(d.Values, Options{Latching: LatchPiece, Scheduling: pol})
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := workload.NewRNG(uint64(c) + 1)
				for i := 0; i < 150; i++ {
					lo := r.Int64n(79000)
					hi := lo + 1 + r.Int64n(1000)
					if got, _ := ix.Count(lo, hi); got != hi-lo {
						panic("count mismatch")
					}
				}
			}(c)
		}
		wg.Wait()
		if err := ix.Validate(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

// TestLifecycleStates walks an index through the Figure 5 states:
// nonexistent -> adaptive (fully populated, partially optimized) ->
// optimized (all pieces below the bounded-work threshold).
func TestLifecycleStates(t *testing.T) {
	d := workload.NewUniqueUniform(4096, 31)
	ix := New(d.Values, Options{Latching: LatchNone})
	if s := ix.Lifecycle(); s != StateNonexistent {
		t.Fatalf("fresh index state = %v", s)
	}
	ix.Count(100, 200)
	if s := ix.Lifecycle(); s != StateAdaptive {
		t.Fatalf("state after first query = %v", s)
	}
	// Crack densely until every piece is below the threshold.
	for v := int64(0); v < 4096; v += OptimizedPieceSize / 2 {
		ix.Count(v, v+1)
	}
	if s := ix.Lifecycle(); s != StateOptimized {
		t.Fatalf("state after dense cracking = %v", s)
	}
	if StateNonexistent.String() == "" || StateAdaptive.String() == "" || StateOptimized.String() == "" {
		t.Fatal("empty state strings")
	}
}

// TestPeriodicWorkloadReconvergence: when the focus returns to an
// already-optimized window, queries are immediately cheap (the index
// retains the earlier refinement).
func TestPeriodicWorkloadReconvergence(t *testing.T) {
	d := workload.NewUniqueUniform(200000, 37)
	ix := New(d.Values, Options{Latching: LatchPiece})
	gen := workload.NewPeriodic(workload.Count, d.Domain, 0.005, 2, 50, 9)
	var burst1, burst3 int64 // crack time of window 0's first and second visit
	for i := 0; i < 200; i++ {
		q := gen.Next()
		_, st := ix.Count(q.Lo, q.Hi)
		switch {
		case i < 50:
			burst1 += int64(st.Refine)
		case i >= 100 && i < 150:
			burst3 += int64(st.Refine)
		}
	}
	if burst3*2 >= burst1 {
		t.Fatalf("no retained refinement: first visit %dns, revisit %dns", burst1, burst3)
	}
}

// TestPhysicalAccessors covers the visualization accessors.
func TestPhysicalAccessors(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 29)
	ix := New(d.Values, Options{Latching: LatchNone})
	if ix.PhysicalValues() != nil || ix.BoundaryPositions() != nil {
		if len(ix.PhysicalValues()) != 0 || len(ix.BoundaryPositions()) != 0 {
			t.Fatal("accessors non-empty before init")
		}
	}
	ix.Count(200, 700)
	vals := ix.PhysicalValues()
	if len(vals) != 1000 {
		t.Fatalf("PhysicalValues len %d", len(vals))
	}
	bps := ix.BoundaryPositions()
	if len(bps) != 2 || bps[0].Value != 200 || bps[1].Value != 700 {
		t.Fatalf("BoundaryPositions = %v", bps)
	}
	if bps[0].Pos != 200 || bps[1].Pos != 700 {
		t.Fatalf("positions = %v", bps)
	}
	for i := 0; i < bps[0].Pos; i++ {
		if vals[i] >= 200 {
			t.Fatal("physical order violates boundary")
		}
	}
}
