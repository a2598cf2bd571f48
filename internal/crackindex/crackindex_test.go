package crackindex

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

	"adaptix/internal/cracker"
	"adaptix/internal/directory"
	"adaptix/internal/latch"
	"adaptix/internal/workload"
)

// allConfigs enumerates the latch-mode / layout / policy configurations
// exercised by the correctness tests.
func allConfigs() []Options {
	var out []Options
	for _, mode := range []LatchMode{LatchNone, LatchColumn, LatchPiece} {
		for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
			out = append(out, Options{Layout: layout, Latching: mode})
		}
	}
	// Variants: skip policy, parallel bounds, FIFO scheduling.
	out = append(out,
		Options{Latching: LatchPiece, OnConflict: Skip},
		Options{Latching: LatchColumn, OnConflict: Skip},
		Options{Latching: LatchPiece, ParallelBounds: true},
		Options{Latching: LatchPiece, Scheduling: latch.FIFO},
	)
	return out
}

func TestCountSumMatchBruteForce(t *testing.T) {
	d := workload.NewUniqueUniform(10000, 21)
	queries := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.05, 7), 100)
	for _, opts := range allConfigs() {
		ix := New(d.Values, opts)
		for i, q := range queries {
			gotC, _ := ix.Count(q.Lo, q.Hi)
			if want := q.Hi - q.Lo; gotC != want { // unique 0..n-1
				t.Fatalf("%v/%v: query %d Count(%d,%d) = %d, want %d",
					opts.Latching, opts.Layout, i, q.Lo, q.Hi, gotC, want)
			}
			gotS, _ := ix.Sum(q.Lo, q.Hi)
			if want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2; gotS != want {
				t.Fatalf("%v/%v: query %d Sum(%d,%d) = %d, want %d",
					opts.Latching, opts.Layout, i, q.Lo, q.Hi, gotS, want)
			}
		}
	}
}

func TestDuplicateValues(t *testing.T) {
	d := workload.NewDuplicates(5000, 100, 2)
	for _, opts := range allConfigs() {
		ix := New(d.Values, opts)
		for _, r := range [][2]int64{{10, 60}, {0, 100}, {99, 100}, {50, 51}} {
			if got, want := first(ix.Count(r[0], r[1])), d.TrueCount(r[0], r[1]); got != want {
				t.Fatalf("%v: Count(%d,%d) = %d, want %d", opts.Latching, r[0], r[1], got, want)
			}
			if got, want := first(ix.Sum(r[0], r[1])), d.TrueSum(r[0], r[1]); got != want {
				t.Fatalf("%v: Sum(%d,%d) = %d, want %d", opts.Latching, r[0], r[1], got, want)
			}
		}
	}
}

func first(v int64, _ OpStats) int64 { return v }

// uniqueSum is the closed-form sum of unique values 0..domain-1
// falling in [lo, hi).
func uniqueSum(domain, lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > domain {
		hi = domain
	}
	if lo >= hi {
		return 0
	}
	return (lo + hi - 1) * (hi - lo) / 2
}

func TestEdgeRanges(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 3)
	for _, opts := range allConfigs() {
		ix := New(d.Values, opts)
		cases := []struct {
			lo, hi int64
			want   int64
		}{
			{0, 1000, 1000},   // whole domain
			{-50, 2000, 1000}, // bounds outside the domain
			{500, 500, 0},     // empty range
			{600, 400, 0},     // inverted range
			{0, 1, 1},         // single leftmost value
			{999, 1000, 1},    // single rightmost value
			{-10, 0, 0},       // entirely below
			{1000, 1100, 0},   // entirely above
		}
		for _, c := range cases {
			if got, _ := ix.Count(c.lo, c.hi); got != c.want {
				t.Fatalf("%v: Count(%d,%d) = %d, want %d", opts.Latching, c.lo, c.hi, got, c.want)
			}
			if got, want := first(ix.Sum(c.lo, c.hi)), d.TrueSum(c.lo, c.hi); got != want {
				t.Fatalf("%v: Sum(%d,%d) = %d, want %d", opts.Latching, c.lo, c.hi, got, want)
			}
		}
	}
}

func TestRepeatedIdenticalQueries(t *testing.T) {
	// Small enough for a plain crack, then large enough for the first
	// crack to add quantile cuts: repeats must add nothing either way.
	for _, n := range []int{2000, 4 * auxMinPiece} {
		d := workload.NewUniqueUniform(n, 8)
		ix := New(d.Values, Options{Latching: LatchPiece})
		for i := 0; i < 5; i++ {
			if got, _ := ix.Count(100, 900); got != 800 {
				t.Fatalf("n %d iteration %d: Count = %d", n, i, got)
			}
		}
		// After the first query, boundaries exist; piece count must not
		// grow on repeats.
		aux := int(ix.Stats().AuxCuts.Load())
		if (aux > 0) != (n >= auxMinPiece) {
			t.Fatalf("n %d: %d auxiliary cuts", n, aux)
		}
		if p := ix.NumPieces(); p != 3+aux {
			t.Fatalf("n %d: pieces = %d, want 3 after one crack at two bounds, plus %d auxiliary", n, p, aux)
		}
		if c := ix.Stats().Cracks.Load(); c != 1 {
			t.Fatalf("n %d: cracks = %d, want 1 (repeats are exact-match lookups)", n, c)
		}
	}
}

func TestAdaptiveConvergence(t *testing.T) {
	// As queries accumulate, per-query crack work must shrink: the
	// total crack time of the last quarter of the sequence must be
	// well below the first quarter's (this is the Figure 11/15 shape).
	d := workload.NewUniqueUniform(200000, 5)
	ix := New(d.Values, Options{Latching: LatchPiece})
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.01, 11), 256)
	quarter := len(qs) / 4
	var firstQ, lastQ int64
	for i, q := range qs {
		_, st := ix.Count(q.Lo, q.Hi)
		switch {
		case i < quarter:
			firstQ += int64(st.Refine)
		case i >= 3*quarter:
			lastQ += int64(st.Refine)
		}
	}
	if lastQ*2 >= firstQ {
		t.Fatalf("no adaptive convergence: first quarter crack %dns, last %dns", firstQ, lastQ)
	}
}

func TestBoundariesSortedAndPiecesConsistent(t *testing.T) {
	d := workload.NewUniqueUniform(5000, 10)
	ix := New(d.Values, Options{Latching: LatchNone})
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.1, 3), 50)
	for _, q := range qs {
		ix.Count(q.Lo, q.Hi)
	}
	bs := ix.Boundaries()
	for i := 1; i < len(bs); i++ {
		if bs[i-1] >= bs[i] {
			t.Fatalf("boundaries not strictly increasing at %d: %v", i, bs[i-1:i+1])
		}
	}
	if ix.NumPieces() != len(bs)+1 {
		t.Fatalf("pieces %d != boundaries+1 %d", ix.NumPieces(), len(bs)+1)
	}
	// Verify the physical array respects every boundary.
	for _, b := range bs {
		at, _ := ix.crackBound(directory.Ref{}, b, &opCtx{})
		pos := at.pos
		for i := 0; i < pos; i++ {
			if ix.arr.Value(i) >= b {
				t.Fatalf("value %d at pos %d >= boundary %d", ix.arr.Value(i), i, b)
			}
		}
		for i := pos; i < ix.arr.Len(); i++ {
			if ix.arr.Value(i) < b {
				t.Fatalf("value %d at pos %d < boundary %d", ix.arr.Value(i), i, b)
			}
		}
	}
}

func TestSelectRowIDs(t *testing.T) {
	d := workload.NewUniqueUniform(3000, 14)
	for _, opts := range allConfigs() {
		ix := New(d.Values, opts)
		ids, _ := ix.SelectRowIDs(500, 700)
		if len(ids) != 200 {
			t.Fatalf("%v: got %d ids, want 200", opts.Latching, len(ids))
		}
		seen := map[uint32]bool{}
		for _, id := range ids {
			v := d.Values[id]
			if v < 500 || v >= 700 {
				t.Fatalf("%v: rowID %d value %d fails predicate", opts.Latching, id, v)
			}
			if seen[id] {
				t.Fatalf("%v: duplicate rowID %d", opts.Latching, id)
			}
			seen[id] = true
		}
	}
}

// TestConcurrentCorrectness is the core concurrency test: many clients
// issue the same deterministic query set concurrently; every answer
// must be exactly right regardless of interleaving. Run with -race.
func TestConcurrentCorrectness(t *testing.T) {
	d := workload.NewUniqueUniform(100000, 4)
	configs := []Options{
		{Latching: LatchPiece},
		{Latching: LatchPiece, ParallelBounds: true},
		{Latching: LatchPiece, OnConflict: Skip},
		{Latching: LatchPiece, Scheduling: latch.FIFO},
		{Latching: LatchColumn},
		{Latching: LatchColumn, OnConflict: Skip},
		{Latching: LatchPiece, Layout: cracker.LayoutPairs},
	}
	for _, opts := range configs {
		opts := opts
		t.Run(opts.Latching.String()+"/"+opts.OnConflict.String(), func(t *testing.T) {
			ix := New(d.Values, opts)
			const clients = 8
			const perClient = 64
			var wg sync.WaitGroup
			errs := make(chan string, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					gen := workload.NewUniform(workload.Sum, d.Domain, 0.02, uint64(1000+c))
					for i := 0; i < perClient; i++ {
						q := gen.Next()
						wantC := q.Hi - q.Lo
						wantS := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
						if i%2 == 0 {
							if got, _ := ix.Count(q.Lo, q.Hi); got != wantC {
								errs <- "count mismatch"
								return
							}
						} else {
							if got, _ := ix.Sum(q.Lo, q.Hi); got != wantS {
								errs <- "sum mismatch"
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		})
	}
}

// TestConcurrentSameHotRange stresses the redetermination path: all
// clients crack bounds inside one narrow region, maximizing waiting
// queues and piece splits under waiters (Figure 10).
func TestConcurrentSameHotRange(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 6)
	ix := New(d.Values, Options{Latching: LatchPiece})
	const clients = 8
	var wg sync.WaitGroup
	bad := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(c) * 77)
			for i := 0; i < 100; i++ {
				lo := 20000 + r.Int64n(1000)
				hi := lo + 1 + r.Int64n(1000)
				if got, _ := ix.Sum(lo, hi); got != uniqueSum(d.Domain, lo, hi) {
					bad <- "sum mismatch in hot range"
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(bad)
	for e := range bad {
		t.Fatal(e)
	}
	if ix.Stats().Redeterminations.Load() == 0 {
		t.Log("note: no redeterminations occurred (timing-dependent)")
	}
}

func TestSkipModeForgoesRefinement(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 12)
	ix := New(d.Values, Options{Latching: LatchPiece, OnConflict: Skip})
	// Model a concurrent aggregation: a read latch on the piece both
	// bounds fall into. The optional crack (write latch) must be
	// forgone, while the fallback scan shares the read latch.
	ix.Count(10, 20) // initialize + create boundaries
	l := ix.latchOf(ix.dir.Floor(30000))
	l.RLock()
	n, st := ix.Count(25000, 35000)
	l.RUnlock()
	if n != 10000 {
		t.Fatalf("skip-mode Count = %d, want 10000", n)
	}
	if !st.Skipped {
		t.Fatal("expected the query to report skipped refinement")
	}
	if got := ix.Stats().Skipped.Load(); got == 0 {
		t.Fatal("Skipped counter not incremented")
	}
}

func TestLockProbeBlocksRefinement(t *testing.T) {
	d := workload.NewUniqueUniform(10000, 13)
	hasLock := true
	ix := New(d.Values, Options{
		Latching:  LatchPiece,
		LockProbe: func() bool { return hasLock },
	})
	n, st := ix.Count(100, 500)
	if n != 400 {
		t.Fatalf("Count with user lock = %d, want 400", n)
	}
	if !st.Skipped {
		t.Fatal("refinement should be skipped while a user lock exists")
	}
	if ix.Stats().Cracks.Load() != 0 {
		t.Fatal("no cracks should happen under a conflicting user lock")
	}
	hasLock = false
	ix.Count(100, 500)
	if ix.Stats().Cracks.Load() == 0 {
		t.Fatal("refinement should resume once the user lock is gone")
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 19)
	var events []TraceEvent
	ix := New(d.Values, Options{
		Latching: LatchPiece,
		Tracer:   func(e TraceEvent) { events = append(events, e) },
	})
	ix.SumCtx(WithTag(context.Background(), "Q1"), 100, 200)
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	var sawWantW, sawCrack, sawDowngrade bool
	for _, e := range events {
		if e.Query != "Q1" {
			t.Fatalf("event with wrong tag: %+v", e)
		}
		switch e.Kind {
		case TraceWantWrite:
			sawWantW = true
		case TraceCracked:
			sawCrack = true
		case TraceDowngraded:
			sawDowngrade = true
		}
	}
	if !sawWantW || !sawCrack || !sawDowngrade {
		t.Fatalf("missing event kinds: wantW=%v crack=%v downgrade=%v (events: %v)",
			sawWantW, sawCrack, sawDowngrade, events)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	d := workload.NewUniqueUniform(100, 1)
	a := r.GetOrCreate("R.A", d.Values, Options{})
	b := r.GetOrCreate("R.A", nil, Options{})
	if a != b {
		t.Fatal("GetOrCreate did not return the registered index")
	}
	if _, ok := r.Get("R.B"); ok {
		t.Fatal("Get of unknown column succeeded")
	}
	r.GetOrCreate("R.B", d.Values, Options{})
	if len(r.Names()) != 2 {
		t.Fatalf("Names = %v", r.Names())
	}
	r.Drop("R.A")
	if _, ok := r.Get("R.A"); ok {
		t.Fatal("dropped index still present")
	}
}

func TestLazyInitialization(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 2)
	ix := New(d.Values, Options{Latching: LatchPiece})
	if ix.Initialized() {
		t.Fatal("index initialized before first query")
	}
	if ix.NumPieces() != 0 {
		t.Fatal("pieces exist before first query")
	}
	_, st := ix.Count(10, 20)
	if !ix.Initialized() {
		t.Fatal("index not initialized by first query")
	}
	if st.Refine == 0 {
		t.Fatal("first query should charge initialization to crack time")
	}
	if ix.Stats().InitTime.Load() == 0 {
		t.Fatal("InitTime not recorded")
	}
}

func TestCountStabilityUnderFurtherCracking(t *testing.T) {
	// Counts derived from boundary positions must never change as other
	// queries refine the column further.
	d := workload.NewUniqueUniform(20000, 31)
	ix := New(d.Values, Options{Latching: LatchNone})
	c1, _ := ix.Count(5000, 15000)
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.01, 9), 100)
	for _, q := range qs {
		ix.Count(q.Lo, q.Hi)
	}
	c2, _ := ix.Count(5000, 15000)
	if c1 != c2 {
		t.Fatalf("count changed after refinement: %d -> %d", c1, c2)
	}
}

func TestPropertyQuickRandomQueries(t *testing.T) {
	d := workload.NewDuplicates(3000, 500, 77)
	ixPiece := New(d.Values, Options{Latching: LatchPiece})
	ixNone := New(d.Values, Options{Latching: LatchNone})
	f := func(a, b int64) bool {
		lo, hi := a%600-50, b%600-50
		if lo > hi {
			lo, hi = hi, lo
		}
		wantC, wantS := d.TrueCount(lo, hi), d.TrueSum(lo, hi)
		for _, ix := range []*Index{ixPiece, ixNone} {
			if got, _ := ix.Count(lo, hi); got != wantC {
				return false
			}
			if got, _ := ix.Sum(lo, hi); got != wantS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionStrings(t *testing.T) {
	if LatchPiece.String() != "piece" || LatchColumn.String() != "column" || LatchNone.String() != "none" {
		t.Fatal("bad LatchMode strings")
	}
	if Wait.String() != "wait" || Skip.String() != "skip" {
		t.Fatal("bad ConflictPolicy strings")
	}
}
