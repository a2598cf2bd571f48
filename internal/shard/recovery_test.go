package shard

import (
	"slices"
	"testing"

	"adaptix/internal/workload"
)

// warmUp runs a fixed query mix so every shard earns crack boundaries.
func warmUp(t *testing.T, c *Column, domain int64) {
	t.Helper()
	r := workload.NewRNG(31)
	for i := 0; i < 200; i++ {
		lo := r.Int64n(domain)
		hi := lo + 1 + r.Int64n(domain-lo)
		if _, st, _ := c.Count(qctx, lo, hi); st.Skipped {
			t.Fatal("unexpected skip in single-threaded warm-up")
		}
	}
}

func totalCracks(c *Column) int64 {
	var n int64
	for _, s := range c.Snapshot() {
		n += s.Cracks
	}
	return n
}

func TestCrackBoundariesSnapshot(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 11)
	c := New(d.Values, Options{Shards: 4, Seed: 7, Index: pieceOpts()})
	if got := c.CrackBoundaries(); len(got) != c.NumShards() {
		t.Fatalf("CrackBoundaries lists %d shards, want %d", len(got), c.NumShards())
	}
	warmUp(t, c, d.Domain)
	cracks := c.CrackBoundaries()
	var total int
	bounds := c.Bounds()
	for i, set := range cracks {
		total += len(set)
		lo, hi := int64(minKey), int64(maxKey)
		if i > 0 {
			lo = bounds[i-1]
		}
		if i < len(bounds) {
			hi = bounds[i]
		}
		// Boundaries live in [lo, hi]: queries clamped at a shard edge
		// crack exactly at the edge value.
		for _, b := range set {
			if b < lo || b > hi {
				t.Fatalf("shard %d boundary %d outside range [%d,%d]", i, b, lo, hi)
			}
		}
	}
	if total == 0 {
		t.Fatal("warm-up earned no crack boundaries")
	}
}

func TestValuesMaterializesLogicalContents(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 13)
	c := New(d.Values, Options{Shards: 4, Seed: 7, Index: pieceOpts()})
	if err := c.Insert(qctx, 1<<20); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.DeleteValue(qctx, d.Values[0]); err != nil || !ok {
		t.Fatalf("DeleteValue: %v %v", ok, err)
	}
	vals := c.Values()
	if len(vals) != len(d.Values) {
		t.Fatalf("Values() has %d rows, want %d", len(vals), len(d.Values))
	}
	count := map[int64]int{}
	for _, v := range vals {
		count[v]++
	}
	if count[1<<20] != 1 {
		t.Fatal("inserted value missing from dump")
	}
	if count[d.Values[0]] != 0 {
		t.Fatal("deleted value present in dump")
	}
}

// Run at a size the build leaves as one piece per shard and at one it
// lays out in pieces itself: the recovered boundaries are then replayed
// on top of the build's seeds, and the result holds both.
func TestNewWithBoundsAndCracksPreCracks(t *testing.T) {
	for _, rows := range []int{1 << 13, 1 << 16} {
		testNewWithBoundsAndCracksPreCracks(t, rows)
	}
}

func testNewWithBoundsAndCracksPreCracks(t *testing.T, rows int) {
	d := workload.NewUniqueUniform(rows, 17)
	warm := New(d.Values, Options{Shards: 4, Seed: 7, Index: pieceOpts()})
	seeded := len(slices.Concat(warm.CrackBoundaries()...))
	if (seeded > 0) != (rows >= 8*pieceTarget) {
		t.Fatalf("%d rows: a fresh column has %d boundaries", rows, seeded)
	}
	warmUp(t, warm, d.Domain)

	bounds, cracks := warm.Bounds(), warm.CrackBoundaries()
	re := NewWithBoundsAndCracks(warm.Values(), bounds, cracks, Options{Index: pieceOpts()})
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	reCracks := re.CrackBoundaries()
	for i, want := range cracks {
		got := map[int64]bool{}
		for _, b := range reCracks[i] {
			got[b] = true
		}
		for _, b := range want {
			if !got[b] {
				t.Fatalf("shard %d: boundary %d not pre-cracked", i, b)
			}
		}
	}

	// Refinement equivalence: a fresh query cracks no more on the
	// rebuilt column than on the warm original.
	lo, hi := d.Domain/3, d.Domain/3+d.Domain/10
	warmBefore, reBefore := totalCracks(warm), totalCracks(re)
	wantN := d.TrueCount(lo, hi)
	if n, _, _ := warm.Count(qctx, lo, hi); n != wantN {
		t.Fatalf("warm Count = %d, want %d", n, wantN)
	}
	if n, _, _ := re.Count(qctx, lo, hi); n != wantN {
		t.Fatalf("rebuilt Count = %d, want %d", n, wantN)
	}
	warmDelta := totalCracks(warm) - warmBefore
	reDelta := totalCracks(re) - reBefore
	if reDelta > warmDelta {
		t.Fatalf("rebuilt column cracked %d times, warm column %d", reDelta, warmDelta)
	}

	// Answers across a query sweep agree with brute force.
	r := workload.NewRNG(51)
	for i := 0; i < 200; i++ {
		qlo := r.Int64n(d.Domain)
		qhi := qlo + 1 + r.Int64n(d.Domain-qlo)
		if n, _, _ := re.Count(qctx, qlo, qhi); n != d.TrueCount(qlo, qhi) {
			t.Fatalf("Count[%d,%d) = %d, want %d", qlo, qhi, n, d.TrueCount(qlo, qhi))
		}
	}
}

func TestNewWithBoundsAndCracksMisalignedListsStillRoute(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 19)
	// A single flattened list (wrong arity) must still pre-crack: every
	// boundary routes to the shard whose range contains it.
	bounds := []int64{1024, 2048, 3072}
	flat := [][]int64{{100, 1500, 2500, 3500}}
	c := NewWithBoundsAndCracks(d.Values, bounds, flat, Options{Index: pieceOpts()})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cracks := c.CrackBoundaries()
	for shardOrd, want := range map[int]int64{0: 100, 1: 1500, 2: 2500, 3: 3500} {
		found := false
		for _, b := range cracks[shardOrd] {
			if b == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("boundary %d not routed into shard %d (got %v)", want, shardOrd, cracks[shardOrd])
		}
	}
}
