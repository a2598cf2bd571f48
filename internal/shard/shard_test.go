package shard

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/workload"
)

// qctx is the uncancellable context the tests drive queries with.
var qctx = context.Background()

func pieceOpts() crackindex.Options {
	return crackindex.Options{Latching: crackindex.LatchPiece}
}

func TestDefaults(t *testing.T) {
	c := New([]int64{3, 1, 2}, Options{})
	if got, want := c.Options().Shards, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default Shards = %d, want GOMAXPROCS = %d", got, want)
	}
	if cap(c.sem) != c.Options().Shards {
		t.Errorf("fan-out pool = %d slots, want Shards = %d", cap(c.sem), c.Options().Shards)
	}
	if c.Rows() != 3 {
		t.Errorf("Rows = %d, want 3", c.Rows())
	}
}

func TestPartitioningInvariants(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 3)
	for _, p := range []int{1, 2, 3, 4, 8, 16} {
		c := New(d.Values, Options{Shards: p, Seed: 9, Index: pieceOpts()})
		if c.NumShards() > p {
			t.Errorf("P=%d: NumShards = %d exceeds requested", p, c.NumShards())
		}
		if c.Rows() != len(d.Values) {
			t.Errorf("P=%d: Rows = %d, want %d", p, c.Rows(), len(d.Values))
		}
		if err := c.Validate(); err != nil {
			t.Errorf("P=%d: %v", p, err)
		}
		b := c.Bounds()
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Errorf("P=%d: bounds not strictly increasing: %v", p, b)
			}
		}
	}
}

func TestCountSumMatchBruteForce(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 5)
	c := New(d.Values, Options{Shards: 4, Seed: 7, Index: pieceOpts()})
	r := workload.NewRNG(21)
	for i := 0; i < 300; i++ {
		lo := r.Int64n(d.Domain)
		hi := lo + 1 + r.Int64n(d.Domain-lo)
		if n, _, _ := c.Count(qctx, lo, hi); n != d.TrueCount(lo, hi) {
			t.Fatalf("Count[%d,%d) = %d, want %d", lo, hi, n, d.TrueCount(lo, hi))
		}
		if s, _, _ := c.Sum(qctx, lo, hi); s != d.TrueSum(lo, hi) {
			t.Fatalf("Sum[%d,%d) = %d, want %d", lo, hi, s, d.TrueSum(lo, hi))
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCaseRanges(t *testing.T) {
	d := workload.NewUniqueUniform(4096, 8)
	c := New(d.Values, Options{Shards: 4, Index: pieceOpts()})
	cases := []struct{ lo, hi int64 }{
		{0, d.Domain},             // whole domain
		{10, 10},                  // empty range
		{50, 10},                  // inverted range
		{-100, 0},                 // entirely below the domain
		{d.Domain, d.Domain + 50}, // entirely above the domain
		{-100, d.Domain + 100},    // superset of the domain
		{minKey, maxKey},          // sentinel-wide range
		{0, 1},                    // single value at the low edge
		{d.Domain - 1, d.Domain},  // single value at the high edge
	}
	for _, tc := range cases {
		if n, _, _ := c.Count(qctx, tc.lo, tc.hi); n != d.TrueCount(tc.lo, tc.hi) {
			t.Errorf("Count[%d,%d) = %d, want %d", tc.lo, tc.hi, n, d.TrueCount(tc.lo, tc.hi))
		}
		if s, _, _ := c.Sum(qctx, tc.lo, tc.hi); s != d.TrueSum(tc.lo, tc.hi) {
			t.Errorf("Sum[%d,%d) = %d, want %d", tc.lo, tc.hi, s, d.TrueSum(tc.lo, tc.hi))
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFullyCoveredShardsAnswerWithoutIndexWork(t *testing.T) {
	d := workload.NewUniqueUniform(4096, 2)
	c := New(d.Values, Options{Shards: 4, Index: pieceOpts()})
	// The whole domain covers every shard: the precomputed aggregates
	// answer, and no shard index is touched.
	if n, _, _ := c.Count(qctx, minKey, maxKey); n != int64(len(d.Values)) {
		t.Fatalf("Count = %d, want %d", n, len(d.Values))
	}
	if s, _, _ := c.Sum(qctx, minKey, maxKey); s != d.TrueSum(0, d.Domain) {
		t.Fatalf("Sum mismatch")
	}
	for _, st := range c.Snapshot() {
		if st.Cracks != 0 {
			t.Errorf("shard %d refined (cracks=%d) by a fully-covering query", st.Shard, st.Cracks)
		}
	}
}

func TestDuplicatesAndSkew(t *testing.T) {
	// Heavy duplication: a tiny domain collapses most quantile cuts.
	d := workload.NewDuplicates(1<<12, 8, 4)
	c := New(d.Values, Options{Shards: 8, Index: pieceOpts()})
	if c.NumShards() > 8 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	r := workload.NewRNG(6)
	for i := 0; i < 200; i++ {
		lo := r.Int64n(d.Domain)
		hi := lo + 1 + r.Int64n(d.Domain-lo)
		if n, _, _ := c.Count(qctx, lo, hi); n != d.TrueCount(lo, hi) {
			t.Fatalf("Count[%d,%d) = %d, want %d", lo, hi, n, d.TrueCount(lo, hi))
		}
		if s, _, _ := c.Sum(qctx, lo, hi); s != d.TrueSum(lo, hi) {
			t.Fatalf("Sum[%d,%d) = %d, want %d", lo, hi, s, d.TrueSum(lo, hi))
		}
	}
	// Constant column: one shard, still correct.
	same := make([]int64, 1000)
	for i := range same {
		same[i] = 7
	}
	c2 := New(same, Options{Shards: 4, Index: pieceOpts()})
	if c2.NumShards() != 1 {
		t.Errorf("constant column: NumShards = %d, want 1", c2.NumShards())
	}
	if n, _, _ := c2.Count(qctx, 7, 8); n != 1000 {
		t.Errorf("constant column: Count = %d, want 1000", n)
	}
}

func TestEmptyAndTinyColumns(t *testing.T) {
	empty := New(nil, Options{Shards: 4, Index: pieceOpts()})
	if n, _, _ := empty.Count(qctx, 0, 100); n != 0 {
		t.Errorf("empty Count = %d", n)
	}
	if s, _, _ := empty.Sum(qctx, minKey, maxKey); s != 0 {
		t.Errorf("empty Sum = %d", s)
	}
	one := New([]int64{42}, Options{Shards: 8, Index: pieceOpts()})
	if n, _, _ := one.Count(qctx, 0, 100); n != 1 {
		t.Errorf("singleton Count = %d", n)
	}
	if s, _, _ := one.Sum(qctx, 42, 43); s != 42 {
		t.Errorf("singleton Sum = %d", s)
	}
}

func TestSnapshotReflectsRefinement(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 12)
	c := New(d.Values, Options{Shards: 4, Index: pieceOpts()})
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.01, 13), 64)
	for _, q := range qs {
		c.Sum(qctx, q.Lo, q.Hi)
	}
	var pieces, cracks int64
	for _, st := range c.Snapshot() {
		pieces += int64(st.Pieces)
		cracks += st.Cracks
		if st.Pieces > 1 && st.Depth <= 0 {
			t.Errorf("shard %d: pieces=%d but depth=%d", st.Shard, st.Pieces, st.Depth)
		}
		if st.Rows > 0 && st.Pieces > st.Rows {
			t.Errorf("shard %d: pieces=%d exceeds rows=%d", st.Shard, st.Pieces, st.Rows)
		}
	}
	if pieces == 0 || cracks == 0 {
		t.Errorf("no refinement recorded: pieces=%d cracks=%d", pieces, cracks)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentQueries(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 17)
	c := New(d.Values, Options{Shards: 4, Index: pieceOpts()})
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.02, 19), 256)
	want := make([]int64, len(qs))
	for i, q := range qs {
		want[i] = d.TrueSum(q.Lo, q.Hi)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				if s, _, _ := c.Sum(qctx, q.Lo, q.Hi); s != want[i] {
					errs <- "sum mismatch under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	// A worker pool of 1 still completes wide fan-outs (no deadlock),
	// because the caller's goroutine always executes one sub-query.
	d := workload.NewUniqueUniform(1<<12, 23)
	c := New(d.Values, Options{Shards: 8, Index: pieceOpts()})
	for range cap(c.sem) - 1 { // leave one slot free
		c.sem <- struct{}{}
	}
	r := workload.NewRNG(29)
	for i := 0; i < 100; i++ {
		lo := r.Int64n(d.Domain / 2)
		hi := lo + d.Domain/2 // wide ranges spanning many shards
		if n, _, _ := c.Count(qctx, lo, hi); n != d.TrueCount(lo, hi) {
			t.Fatalf("Count[%d,%d) = %d, want %d", lo, hi, n, d.TrueCount(lo, hi))
		}
	}
}

// TestConvergedFanOutRunsInline: a query whose fringe shards both find
// their clamped bounds among their boundaries is answered on the caller's
// goroutine — with every worker slot taken it still returns, where a
// spawned sub-query would wait for a slot forever — reads no row, and
// has no critical path (Critical is 0: no sub-query ran).
// The same range with one bound moved has to crack one shard and only
// that one: it needs no worker either (the caller runs the one target).
func TestConvergedFanOutRunsInline(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 31)
	c := New(d.Values, Options{Shards: 4, Index: pieceOpts()})
	b := c.Bounds()
	lo, hi := b[0]-100, b[1]+100 // fringes in shards 0 and 2, shard 1 fully covered
	c.Sum(qctx, lo, hi)
	for range cap(c.sem) { // the pool is exhausted from here on
		c.sem <- struct{}{}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, wantSum := range []bool{false, true} {
			got, st, err := c.query(qctx, wantSum, lo, hi)
			want := d.TrueCount(lo, hi)
			if wantSum {
				want = d.TrueSum(lo, hi)
			}
			if err != nil || got != want {
				t.Errorf("converged query (sum %t) = %d, %v; want %d", wantSum, got, err, want)
			}
			if st.Touched != 0 || st.Refine != 0 || st.Critical != 0 {
				t.Errorf("converged query (sum %t) cost %+v: want no row touched and no critical path", wantSum, st)
			}
		}
		if got, st, err := c.Count(qctx, lo, hi+7); err != nil || got != d.TrueCount(lo, hi+7) || st.Touched == 0 {
			t.Errorf("one-miss query = %d, %v, touched %d", got, err, st.Touched)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a converged fan-out waited for a worker slot")
	}
	if cracks := c.Snapshot()[0].Cracks; cracks != 1 {
		t.Errorf("shard 0 cracked %d times: the inline answer must not refine", cracks)
	}
}

func TestNegativeValues(t *testing.T) {
	vals := []int64{-5, -1, 0, 3, math.MinInt64 + 1, math.MaxInt64 - 1, -100, 100}
	c := New(vals, Options{Shards: 3, Index: pieceOpts()})
	count := func(lo, hi int64) int64 {
		var n int64
		for _, v := range vals {
			if v >= lo && v < hi {
				n++
			}
		}
		return n
	}
	for _, tc := range [][2]int64{{-200, 0}, {-1, 4}, {minKey, maxKey}, {0, math.MaxInt64}} {
		if n, _, _ := c.Count(qctx, tc[0], tc[1]); n != count(tc[0], tc[1]) {
			t.Errorf("Count[%d,%d) = %d, want %d", tc[0], tc[1], n, count(tc[0], tc[1]))
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- Write path and structural operations (update.go) ---

func TestApplyShardMergesDifferential(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 41)
	c := New(d.Values, Options{Shards: 4, Seed: 3, Index: pieceOpts()})
	c.Sum(qctx, 10, d.Domain/8) // earn some refinement to replay
	for i := int64(0); i < 128; i++ {
		if err := c.Insert(qctx, i); err != nil {
			t.Fatal(err)
		}
	}
	totalBefore, _, _ := c.Sum(qctx, minKey, maxKey)
	st := c.Snapshot()[0]
	if st.PendingInserts == 0 {
		t.Fatal("expected pending inserts in shard 0")
	}
	ap, ok := c.ApplyShard(0)
	if !ok {
		t.Fatal("ApplyShard(0) found nothing to do")
	}
	if ap.Inserts != st.PendingInserts {
		t.Errorf("Applied.Inserts = %d, want %d", ap.Inserts, st.PendingInserts)
	}
	after := c.Snapshot()[0]
	if after.PendingInserts != 0 || after.PendingDeletes != 0 {
		t.Errorf("pending not cleared: %d/%d", after.PendingInserts, after.PendingDeletes)
	}
	if after.Rows != st.Rows {
		t.Errorf("rows changed across merge: %d -> %d", st.Rows, after.Rows)
	}
	if totalAfter, _, _ := c.Sum(qctx, minKey, maxKey); totalAfter != totalBefore {
		t.Errorf("Sum changed across merge: %d -> %d", totalBefore, totalAfter)
	}
	if _, ok := c.ApplyShard(0); ok {
		t.Error("second ApplyShard(0) reported work with an empty differential")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndMergeShards(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 43)
	c := New(d.Values, Options{Shards: 2, Seed: 3, Index: pieceOpts()})
	n0 := c.NumShards()
	totalBefore, _, _ := c.Sum(qctx, minKey, maxKey)

	sp, ok := c.SplitShard(0)
	if !ok {
		t.Fatal("SplitShard(0) failed")
	}
	if c.NumShards() != n0+1 {
		t.Fatalf("NumShards = %d after split, want %d", c.NumShards(), n0+1)
	}
	if sp.LeftRows == 0 || sp.RightRows == 0 {
		t.Fatalf("degenerate split: %+v", sp)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := c.Sum(qctx, minKey, maxKey); got != totalBefore {
		t.Errorf("Sum changed across split: %d -> %d", totalBefore, got)
	}

	mg, ok := c.MergeShards(0)
	if !ok {
		t.Fatal("MergeShards(0) failed")
	}
	if mg.RemovedBound != sp.Cut {
		t.Errorf("merge removed bound %d, split had added %d", mg.RemovedBound, sp.Cut)
	}
	if c.NumShards() != n0 {
		t.Fatalf("NumShards = %d after merge, want %d", c.NumShards(), n0)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := c.Sum(qctx, minKey, maxKey); got != totalBefore {
		t.Errorf("Sum changed across merge: %d -> %d", totalBefore, got)
	}
}

func TestSplitShardDegenerate(t *testing.T) {
	vals := make([]int64, 64) // all zero: no valid cut
	c := New(vals, Options{Shards: 1, Index: pieceOpts()})
	if _, ok := c.SplitShard(0); ok {
		t.Fatal("split of a single-value shard succeeded")
	}
	// The shard must have been unsealed: writes still proceed.
	if err := c.Insert(qctx, 0); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := c.Count(qctx, 0, 1); n != 65 {
		t.Fatalf("Count = %d after post-split-failure insert, want 65", n)
	}
}

// TestCriticalPathStat checks the fan-out critical-path metric: for a
// query spanning several shards, Critical must be positive and no
// larger than the total work (Wait + Refine) ... it can legitimately
// exceed pure refinement time since it includes scan time, but it must
// never exceed the query's end-to-end response time.
func TestCriticalPathStat(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 57)
	col := New(d.Values, Options{
		Shards: 8, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	start := time.Now()
	// Clip one value off each end: the fringe shards are only partially
	// covered, so the query must fan out to real sub-queries instead of
	// being answered purely from the precomputed aggregates.
	_, res, err := col.Sum(context.Background(), 1, d.Domain-1)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical <= 0 {
		t.Fatalf("Critical = %v for a fan-out query, want > 0", res.Critical)
	}
	if res.Critical > elapsed {
		t.Errorf("Critical %v exceeds end-to-end response %v", res.Critical, elapsed)
	}
}
