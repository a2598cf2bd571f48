package shard

import (
	"math"
	"slices"
	"testing"

	"adaptix/internal/amerge"
	"adaptix/internal/engine"
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
// lays out in pieces itself: either way the restored column holds
// exactly the pieces the imaged one had, at the same positions, and has
// cracked nothing to get them.
func TestRestoreAdoptsPieces(t *testing.T) {
	for _, rows := range []int{1 << 11, 1 << 16} {
		testRestoreAdoptsPieces(t, rows)
	}
}

func testRestoreAdoptsPieces(t *testing.T, rows int) {
	d := workload.NewUniqueUniform(rows, 17)
	warm := New(d.Values, Options{Shards: 4, Seed: 7, Index: pieceOpts()})
	seeded := len(slices.Concat(warm.CrackBoundaries()...))
	if (seeded > 0) != (rows >= 8*pieceTarget) {
		t.Fatalf("%d rows: a fresh column has %d boundaries", rows, seeded)
	}
	warmUp(t, warm, d.Domain)

	re := Restore(warm.ImageAt(warm.SealAllEpochs()), Options{Index: pieceOpts()})
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.Bounds(), warm.Bounds()) {
		t.Fatalf("restored bounds %v, imaged %v", re.Bounds(), warm.Bounds())
	}
	wm, rm := warm.m.Load(), re.m.Load()
	for i := range wm.shards {
		if got, want := rm.shards[i].ix.BoundaryPositions(), wm.shards[i].ix.BoundaryPositions(); !slices.Equal(got, want) {
			t.Fatalf("shard %d: restored table %v, imaged %v", i, got, want)
		}
	}
	if n := totalCracks(re); n != 0 {
		t.Fatalf("restoring cracked %d times", n)
	}

	// Refinement equivalence: a fresh query cracks no more on the
	// restored column than on the warm original.
	lo, hi := d.Domain/3, d.Domain/3+d.Domain/10
	warmBefore, reBefore := totalCracks(warm), totalCracks(re)
	wantN := d.TrueCount(lo, hi)
	if n, _, _ := warm.Count(qctx, lo, hi); n != wantN {
		t.Fatalf("warm Count = %d, want %d", n, wantN)
	}
	if n, _, _ := re.Count(qctx, lo, hi); n != wantN {
		t.Fatalf("restored Count = %d, want %d", n, wantN)
	}
	if reDelta, warmDelta := totalCracks(re)-reBefore, totalCracks(warm)-warmBefore; reDelta > warmDelta {
		t.Fatalf("restored column cracked %d times, warm column %d", reDelta, warmDelta)
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

// TestRestoreRoundTrip: a column restored from its image has the same
// shard map and answers every query the same, for a cracked column and
// a custom-source one, with writes pending in the imaged chains; the
// epochs it opens lie above the image's watermark.
func TestRestoreRoundTrip(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 47)
	for name, opts := range map[string]Options{
		"crack": {Shards: 8, Seed: 5, Index: pieceOpts()},
		"source": {Shards: 8, Seed: 5, Source: func(values []int64) engine.AggregateSource {
			return amerge.New(values, amerge.Options{})
		}},
	} {
		c := New(d.Values, opts)
		warmUp(t, c, d.Domain)
		for i := int64(0); i < 64; i++ {
			if err := c.Insert(qctx, d.Domain+i); err != nil {
				t.Fatal(err)
			}
			if _, err := c.DeleteValue(qctx, 3*i); err != nil {
				t.Fatal(err)
			}
		}
		w := c.SealAllEpochs()
		img := c.ImageAt(w)
		c2 := Restore(img, opts)
		if err := c2.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(c2.Bounds(), c.Bounds()) {
			t.Fatalf("%s: restored bounds %v, imaged %v", name, c2.Bounds(), c.Bounds())
		}
		if c2.Rows() != c.Rows() {
			t.Fatalf("%s: restored %d rows, imaged %d", name, c2.Rows(), c.Rows())
		}
		for _, s := range c2.Snapshot() {
			if s.OpenEpoch <= w {
				t.Fatalf("%s: shard %d opened epoch %d, not above the watermark %d", name, s.Shard, s.OpenEpoch, w)
			}
		}
		r := workload.NewRNG(3)
		for i := 0; i < 100; i++ {
			lo := r.Int64n(2 * d.Domain)
			hi := lo + 1 + r.Int64n(2*d.Domain-lo)
			if i == 0 {
				lo, hi = math.MinInt64, math.MaxInt64
			}
			a, _, _ := c.Sum(qctx, lo, hi)
			b, _, _ := c2.Sum(qctx, lo, hi)
			if a != b {
				t.Fatalf("%s: Sum[%d,%d) = %d restored, %d imaged", name, lo, hi, b, a)
			}
		}
	}
}
