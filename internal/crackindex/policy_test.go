package crackindex

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/directory"
	"adaptix/internal/latch"
	"adaptix/internal/workload"
)

// mirror reflects a query sequence around the middle of the domain: a
// left-to-right sweep becomes a right-to-left one.
func mirror(qs []workload.Query, domain int64) []workload.Query {
	out := make([]workload.Query, len(qs))
	for i, q := range qs {
		out[i] = workload.Query{Kind: q.Kind, Lo: domain - q.Hi, Hi: domain - q.Lo}
	}
	return out
}

// zoomIn is n nested ranges closing in on the middle of the domain by
// step on either side: every query's bounds fall just inside the ends
// of the one piece the previous query left in the middle.
func zoomIn(domain, step int64, n int) []workload.Query {
	out := make([]workload.Query, n)
	for i := range out {
		d := int64(i+1) * step
		out[i] = workload.Query{Lo: d, Hi: domain - d}
	}
	return out
}

// TestAdversaryTable runs the access patterns that defeat cracking at
// the query bounds alone — and the columns that defeat a careless
// sampler — through every latch mode and layout. Every answer must
// equal the reference scan and the structure must validate. On the
// unique-valued column the refinement work of the whole sequence must
// stay within 2·n·log₂n = 34·n rows (at the query bounds alone a sweep
// or a zoom-in re-partitions most of the column per query: 225·n for
// the sequential sweep here) and no piece may be left holding more than half the column; on the
// duplicate-heavy columns the auxiliary cuts must not multiply pieces:
// a boundary per distinct value and per query bound is all there is to
// cut.
func TestAdversaryTable(t *testing.T) {
	const n = 1 << 17
	const queries = 256
	unique := workload.NewUniqueUniform(n, 41)
	dup8 := &workload.Dataset{Values: make([]int64, n), Domain: 8000}
	equal := &workload.Dataset{Values: make([]int64, n), Domain: 8000}
	r := workload.NewRNG(43)
	for i := range dup8.Values {
		dup8.Values[i] = 500 + 1000*r.Int64n(8)
		equal.Values[i] = 4242
	}
	seq := workload.Fixed(workload.NewSequential(workload.Count, n, 0.25/queries), queries) // sweeps a quarter of the domain
	cases := []struct {
		name     string
		d        *workload.Dataset
		distinct int // 0: unique-valued
		qs       []workload.Query
	}{
		{"sequential", unique, 0, seq},
		{"reverse sequential", unique, 0, mirror(seq, n)},
		{"zoom-in", unique, 0, zoomIn(n, n/8/queries, queries)},
		{"periodic hot range", unique, 0, workload.Fixed(workload.NewPeriodic(workload.Count, n, 0.002, 4, 32, 47), queries)},
		{"8 distinct values", dup8, 8, workload.Fixed(workload.NewSequential(workload.Count, 8000, 1.0/64), 64)},
		{"all equal", equal, 1, workload.Fixed(workload.NewSequential(workload.Count, 8000, 1.0/64), 64)},
	}
	for _, c := range cases {
		ref := newPrefixRef(c.d.Values)
		bounds := map[int64]bool{}
		for _, q := range c.qs {
			bounds[q.Lo], bounds[q.Hi] = true, true
		}
		for _, opts := range everyMode() {
			ix := New(c.d.Values, opts)
			var refined int64
			for i, q := range c.qs {
				wantN, wantS := ref.count(q.Lo, q.Hi), ref.sum(q.Lo, q.Hi)
				if i%2 == 0 {
					got, st := ix.Count(q.Lo, q.Hi)
					if got != wantN {
						t.Fatalf("%s %+v: Count[%d,%d) = %d, want %d", c.name, opts, q.Lo, q.Hi, got, wantN)
					}
					refined += st.Touched
				} else {
					got, st := ix.Sum(q.Lo, q.Hi)
					if got != wantS {
						t.Fatalf("%s %+v: Sum[%d,%d) = %d, want %d", c.name, opts, q.Lo, q.Hi, got, wantS)
					}
					refined += st.Touched
					if opts.Latching != LatchPiece {
						// The baseline modes read the rows of the answer;
						// under piece latches only a crack-in-three reads
						// its middle piece, which the bound below absorbs.
						refined -= wantN
					}
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s %+v: %v", c.name, opts, err)
			}
			if c.distinct == 0 {
				if limit := int64(2 * n * math.Log2(n)); refined > limit {
					t.Errorf("%s %+v: refinement touched %d rows, over 2·n·log₂n = %d", c.name, opts, refined, limit)
				}
				if largest := ix.Profile().MaxPiece; largest > n/2 {
					t.Errorf("%s %+v: a piece of %d rows is left of %d", c.name, opts, largest, n)
				}
			} else {
				if aux := ix.Stats().AuxCuts.Load(); aux == 0 || aux > int64(c.distinct) {
					t.Errorf("%s %+v: %d auxiliary cuts on %d distinct values", c.name, opts, aux, c.distinct)
				}
				if got, limit := ix.NumPieces(), 1+c.distinct+len(bounds); got > limit {
					t.Errorf("%s %+v: %d pieces from %d distinct values and %d query bounds", c.name, opts, got, c.distinct, len(bounds))
				}
			}
		}
	}
}

// TestSequentialSweepWaitsDecay is the paper's claim (c) — conflicts and
// waits "follow an adaptive behavior, decreasing as the workload
// evolves" — on the workload where cracking at the query bounds alone
// breaks it: four clients drain one sequential sweep, so all of them
// always want the one piece ahead of it. With that piece cut down
// geometrically, the latch they collide on is held for a pass over a
// large piece during the first few queries only; at the query bounds
// alone it is held for a pass over most of the column every time, and
// the last quarter waits as long as the first. How often the clients
// collide does not decay on this workload and is only logged: a sweep
// sends every client to the same piece whatever its size, so what can
// fall is the price of a collision. Run with -race.
func TestSequentialSweepWaitsDecay(t *testing.T) {
	const n = 1 << 20
	const queries = 512
	d := workload.NewUniqueUniform(n, 53)
	qs := workload.Fixed(workload.NewSequential(workload.Count, d.Domain, 0.125/queries), queries)
	ix := New(d.Values, Options{Latching: LatchPiece})
	stats := make([]OpStats, queries)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < queries; i = int(next.Add(1) - 1) {
				got, st := ix.Count(qs[i].Lo, qs[i].Hi)
				if got != qs[i].Hi-qs[i].Lo {
					t.Errorf("query %d: Count = %d, want %d", i, got, qs[i].Hi-qs[i].Lo)
				}
				stats[i] = st
			}
		}()
	}
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	var conflicts [4]int64
	var wait [4]time.Duration
	for i, st := range stats {
		conflicts[i*4/queries] += st.Conflicts
		wait[i*4/queries] += st.Wait
	}
	t.Logf("per quarter of the sequence: conflicts %v, wait %v", conflicts, wait)
	if conflicts[0] == 0 {
		t.Fatal("the clients never collided: nothing to decay")
	}
	if wait[3]*2 >= wait[0] {
		t.Errorf("waits do not decay: %v in the first quarter, %v in the last", wait[0], wait[3])
	}
}

// TestLatchNoneTakesNoLatch: LatchNone "truly performs no
// synchronization" (Figure 13) on every crack, the ones that add
// quantile cuts included.
func TestLatchNoneTakesNoLatch(t *testing.T) {
	d := workload.NewUniqueUniform(4*auxMinPiece, 59)
	ix := New(d.Values, Options{Latching: LatchNone})
	ix.Count(10, 20) // initialization is the one step that latches in every mode
	ix.mu.Lock()     // a crack that wanted the structure latch would now block forever
	done := make(chan struct{})
	go func() {
		defer close(done)
		ix.Count(1000, 2000)
		ix.Sum(40000, 41000)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a LatchNone crack blocked on the structure latch")
	}
	ix.mu.Unlock()
	if ix.Stats().AuxCuts.Load() == 0 {
		t.Fatal("no crack added quantile cuts: the test did not reach the path it guards")
	}
}

// TestNarrowQueryServesWaitersAndCutsQuantiles: a query whose two bounds
// fall into one piece — the path every narrow predicate takes — serves
// the bounds queued on that piece, as GroupCracking promises on every
// path, and adds the quantile cuts alongside them.
func TestNarrowQueryServesWaitersAndCutsQuantiles(t *testing.T) {
	d := workload.NewUniqueUniform(4*auxMinPiece, 67)
	ix := New(d.Values, Options{Latching: LatchPiece, GroupCracking: true, Scheduling: latch.FIFO})
	ix.ensureInit(&opCtx{})
	head := ix.latchOf(ix.dir.Floor(minKey))
	head.Lock(0) // park everyone on the one piece
	var wg sync.WaitGroup
	queue := func(f func()) {
		queued := head.QueuedWriters()
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
		for head.QueuedWriters() == queued {
			runtime.Gosched()
		}
	}
	queue(func() { // first in the queue, so first to be granted: the narrow query
		if got, _ := ix.Sum(5000, 5100); got != (5000+5099)*100/2 {
			t.Errorf("Sum = %d", got)
		}
	})
	waiters := []int64{100, 20000, 40000, 60000}
	for _, v := range waiters {
		queue(func() { ix.crackBound(directory.Ref{}, v, &opCtx{}) })
	}
	head.Unlock()
	wg.Wait()
	st := ix.Stats()
	if st.Cracks.Load() != 1 || st.GroupedBounds.Load() != int64(len(waiters)) {
		t.Fatalf("%d cracks served %d queued bounds, want one crack serving %d",
			st.Cracks.Load(), st.GroupedBounds.Load(), len(waiters))
	}
	if st.AuxCuts.Load() == 0 {
		t.Fatal("the grouped crack of a large piece added no quantile cut")
	}
	if got, want := ix.NumPieces(), 1+2+len(waiters)+int(st.AuxCuts.Load()); got != want {
		t.Fatalf("%d pieces, want %d", got, want)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMiddlePieceIsExactlyTheQualifyingRange: the piece handed back
// write-latched for the §3.3 downgrade must hold the qualifying range
// and nothing else, so no optional pivot may cut between the bounds of
// a latched Sum — here a range wide enough to contain every sampled
// quantile. A Count keeps no middle piece and keeps the cuts.
func TestMiddlePieceIsExactlyTheQualifyingRange(t *testing.T) {
	d := workload.NewUniqueUniform(4*auxMinPiece, 71)
	lo, hi := int64(100), d.Domain-100
	inside := func(ix *Index) (n int) {
		for _, b := range ix.Boundaries() {
			if b > lo && b < hi {
				n++
			}
		}
		return n
	}
	for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
		ix := New(d.Values, Options{Latching: LatchPiece, Layout: layout})
		if got, _ := ix.Sum(lo, hi); got != d.TrueSum(lo, hi) {
			t.Fatalf("Sum = %d", got)
		}
		if n := inside(ix); n != 0 || ix.NumPieces() != 3 {
			t.Fatalf("%v: Sum left %d boundaries inside its range, %d pieces", layout, n, ix.NumPieces())
		}
		ix = New(d.Values, Options{Latching: LatchPiece, Layout: layout})
		if got, _ := ix.Count(lo, hi); got != hi-lo {
			t.Fatalf("Count = %d", got)
		}
		if n := inside(ix); n != 3 {
			t.Fatalf("%v: Count kept %d quantile cuts inside its range, want 3", layout, n)
		}
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
