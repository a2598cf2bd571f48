package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/kernel"
	"adaptix/internal/workload"
)

// everyIndexMode is every latch mode crossed with both layouts (an
// owned array is value-only in either).
func everyIndexMode() []crackindex.Options {
	var out []crackindex.Options
	for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
		for _, mode := range []crackindex.LatchMode{crackindex.LatchPiece, crackindex.LatchColumn, crackindex.LatchNone} {
			out = append(out, crackindex.Options{Layout: layout, Latching: mode})
		}
	}
	return out
}

// naiveMerge is the reference the piece-preserving merge is checked
// against: the sorted multiset base + ins - del, knowing nothing of
// pieces.
func naiveMerge(base, ins, del []int64) []int64 {
	out := append(slices.Clone(base), ins...)
	slices.Sort(out)
	for _, v := range del {
		if i, ok := slices.BinarySearch(out, v); ok {
			out = slices.Delete(out, i, i+1)
		}
	}
	return out
}

// randomKey draws from a small domain (so duplicates, and deletes that
// need more than one instance, are the norm) with the two extreme legal
// keys mixed in.
func randomKey(r *workload.RNG) int64 {
	switch r.Intn(40) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64 - 1
	}
	return r.Int64n(120) - 60
}

// randomPart lays random base values out under a random piece table:
// boundaries anywhere in or beyond the data (so empty head, tail and
// middle pieces occur), every piece internally shuffled.
func randomPart(c *Column, r *workload.RNG) (p *part, base []int64) {
	base = make([]int64, r.Intn(200))
	for i := range base {
		base[i] = randomKey(r)
	}
	bounds := make([]int64, r.Intn(12))
	for i := range bounds {
		// Beyond the bulk of the data on either side as often as inside.
		bounds[i] = r.Int64n(200) - 100
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	vals := slices.Clone(base)
	slices.Sort(vals)
	var seeds []crackindex.BoundaryPosition
	start := 0
	for _, b := range bounds {
		pos, _ := slices.BinarySearch(vals, b)
		r.Shuffle(vals[start:pos])
		seeds = append(seeds, crackindex.BoundaryPosition{Value: b, Pos: pos, Sum: kernel.Sum(vals[:pos])})
		start = pos
	}
	r.Shuffle(vals[start:])
	return c.newPart(minKey, maxKey, vals, seeds), base
}

// TestCarryOverMatchesNaiveMerge is the differential test of the one
// rebuild primitive: random piece tables (empty edge and middle pieces
// included), duplicate keys, keys at MinInt64 and MaxInt64-1, deletes
// that must cancel a base instance first and a pending insert second,
// deletes of keys that exist only as pending inserts — in both layouts
// and all three latch modes. The result must equal the naive sorted
// multiset, carry every boundary over, and seed a valid successor.
func TestCarryOverMatchesNaiveMerge(t *testing.T) {
	for _, ixOpts := range everyIndexMode() {
		c := &Column{opts: Options{Index: ixOpts}.withDefaults()}
		r := workload.NewRNG(uint64(7 + 31*int(ixOpts.Layout) + int(ixOpts.Latching)))
		for iter := 0; iter < 300; iter++ {
			p, base := randomPart(c, r)
			ins := make([]int64, r.Intn(60))
			for i := range ins {
				ins[i] = randomKey(r)
			}
			// Deletes are drawn without replacement from what exists, base
			// or pending: the write path admits a delete only against a
			// live instance.
			pool := append(slices.Clone(base), ins...)
			r.Shuffle(pool)
			del := slices.Clone(pool[:r.Intn(len(pool)+1)])
			want := naiveMerge(base, ins, del)

			// A prefix already laid out: seed positions and sums must be
			// absolute.
			prefix := []int64{math.MinInt64, 7}[:r.Intn(3)]
			l := layout{vals: slices.Clone(prefix), sum: kernel.Sum(prefix)}
			p.carryOver(&l, slices.Clone(ins), slices.Clone(del))
			if !slices.Equal(l.vals[:len(prefix)], prefix) {
				t.Fatalf("%+v iter %d: carryOver disturbed the layout's prefix", ixOpts, iter)
			}
			if l.sum != kernel.Sum(l.vals) {
				t.Fatalf("%+v iter %d: layout sum %d, values sum to %d", ixOpts, iter, l.sum, kernel.Sum(l.vals))
			}
			got, seeds := l.vals[len(prefix):], l.seeds
			for i := range seeds {
				seeds[i].Pos -= len(prefix)
				seeds[i].Sum -= kernel.Sum(prefix)
			}
			if sorted := slices.Sorted(slices.Values(got)); !slices.Equal(sorted, want) {
				t.Fatalf("%+v iter %d: merged multiset differs from the naive merge\nbase %v\nins  %v\ndel  %v\n got %v\nwant %v",
					ixOpts, iter, base, ins, del, sorted, want)
			}
			var carried []int64
			for _, s := range seeds {
				carried = append(carried, s.Value)
			}
			if before := p.ix.Boundaries(); !slices.Equal(carried, before) {
				t.Fatalf("%+v iter %d: boundaries %v carried over as %v", ixOpts, iter, before, carried)
			}
			q := c.newPart(minKey, maxKey, got, seeds)
			if err := q.ix.Validate(); err != nil {
				t.Fatalf("%+v iter %d: successor invalid: %v", ixOpts, iter, err)
			}
			if q.ix.HasRowIDs() {
				t.Fatalf("%+v iter %d: the successor's array keeps row ids, in a layout that should store values only", ixOpts, iter)
			}
			if q.ix.Stats().Cracks.Load() != 0 {
				t.Fatalf("%+v iter %d: seeding the successor cracked", ixOpts, iter)
			}
		}
	}
}

// TestMergePieceCancelsBaseBeforePending pins the cancellation order on
// one key: two deletes against one base instance and two pending
// inserts leave exactly one instance; a delete of a key the piece's
// base never held cancels its pending insert.
func TestMergePieceCancelsBaseBeforePending(t *testing.T) {
	got := mergePiece(nil, []int64{9, 5, 7}, []int64{5, 5, 8}, []int64{5, 5, 8})
	slices.Sort(got)
	if want := []int64{5, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("mergePiece = %v, want %v", got, want)
	}
}

// sortedValues is the column's logical contents as a sorted multiset.
func sortedValues(c *Column) []int64 {
	return slices.Sorted(slices.Values(c.Values()))
}

// assertBoundariesSurvive checks that every boundary in before is still
// a boundary of some shard (a split or merge moves boundaries between
// shards; none may vanish).
func assertBoundariesSurvive(t *testing.T, c *Column, before [][]int64, what string) {
	t.Helper()
	have := map[int64]bool{}
	for _, set := range c.CrackBoundaries() {
		for _, b := range set {
			have[b] = true
		}
	}
	for _, b := range c.Bounds() { // a shard cut is boundary knowledge too
		have[b] = true
	}
	for _, set := range before {
		for _, b := range set {
			if !have[b] {
				t.Fatalf("%s: boundary %d lost", what, b)
			}
		}
	}
}

// TestStructuralOpsCarryPiecesOver drives group-apply, split and merge
// through the public surface on a multi-shard column whose queries have
// cracked exactly at the shard edges (loVal/hiVal boundaries, empty edge
// pieces): contents must match the reference after every operation, no
// boundary may be lost, no rebuild may crack, and Validate must hold —
// in every latch mode and layout.
func TestStructuralOpsCarryPiecesOver(t *testing.T) {
	for _, ixOpts := range everyIndexMode() {
		t.Run(fmt.Sprintf("%v-%v", ixOpts.Layout, ixOpts.Latching), func(t *testing.T) {
			d := workload.NewDuplicates(6000, 900, 5)
			c := New(d.Values, Options{Shards: 3, Seed: 5, Index: ixOpts})
			ref := slices.Clone(d.Values)
			r := workload.NewRNG(9)

			// Cross-shard queries clamp at the shard edges: every shard
			// gets boundaries exactly at its loVal and hiVal.
			c.Count(qctx, minKey+1, maxKey-1)
			c.Sum(qctx, -10, 1<<40)
			for i := 0; i < 40; i++ {
				lo := r.Int64n(900)
				c.Count(qctx, lo, lo+1+r.Int64n(50))
			}
			write := func(n int) {
				for i := 0; i < n; i++ {
					v := r.Int64n(1000) - 50
					if r.Intn(3) == 0 {
						if ok, _ := c.DeleteValue(qctx, v); ok {
							j := slices.Index(ref, v)
							ref = slices.Delete(ref, j, j+1)
						}
					} else {
						c.Insert(qctx, v)
						ref = append(ref, v)
					}
				}
			}
			check := func(what string, before [][]int64, rebuilt ...int) {
				t.Helper()
				if err := c.Validate(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if ids := rowIDShards(c); len(ids) != 0 {
					t.Fatalf("%s: shards %v keep row ids", what, ids)
				}
				if want := slices.Sorted(slices.Values(ref)); !slices.Equal(sortedValues(c), want) {
					t.Fatalf("%s: contents differ from the reference", what)
				}
				assertBoundariesSurvive(t, c, before, what)
				stats := c.Snapshot()
				for _, i := range rebuilt {
					if st := stats[i]; st.Cracks != 0 || st.PendingInserts+st.PendingDeletes != 0 {
						t.Fatalf("%s: rebuilt shard %d cracked %d times, %d writes left pending",
							what, i, st.Cracks, st.PendingInserts+st.PendingDeletes)
					}
				}
			}

			write(400)
			before := c.CrackBoundaries() // deletes crack too: snapshot after the writes
			for s := 0; s < c.NumShards(); s++ {
				c.ApplyShard(s)
			}
			check("group apply", before, 0, 1, 2)

			write(300)
			before = c.CrackBoundaries()
			if _, ok := c.SplitShard(1); !ok {
				t.Fatal("split refused")
			}
			check("split", before, 1, 2)
			// The cut is an edge boundary of both halves: clamped queries
			// find it in place.
			cut := c.Bounds()[1]
			bs := c.CrackBoundaries()
			if !slices.Contains(bs[1], cut) || !slices.Contains(bs[2], cut) {
				t.Fatalf("split cut %d is not an edge boundary of both halves: %v | %v", cut, bs[1], bs[2])
			}

			write(300)
			before = c.CrackBoundaries()
			if _, ok := c.MergeShards(0); !ok {
				t.Fatal("merge refused")
			}
			check("merge", before, 0)

			// Still a working index: answers match the reference.
			want := slices.Sorted(slices.Values(ref))
			for i := 0; i < 50; i++ {
				lo := r.Int64n(1000) - 50
				hi := lo + 1 + r.Int64n(100)
				a, _ := slices.BinarySearch(want, lo)
				b, _ := slices.BinarySearch(want, hi)
				if n, _, _ := c.Count(qctx, lo, hi); n != int64(b-a) {
					t.Fatalf("Count[%d,%d) = %d, want %d", lo, hi, n, b-a)
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyWhileReadersCrackOldPart: group-applies run back to back on
// one shard while four readers keep cracking whatever part is current —
// which, for a reader that loaded the shard map just before a publish,
// is the OLD part mid-walk (run with -race). The final contents must be
// exactly base plus every insert, every successor must validate, and a
// boundary that existed before an apply started must survive it: the
// walk can miss a racing crack, never undo an earlier one.
func TestApplyWhileReadersCrackOldPart(t *testing.T) {
	d := workload.NewUniqueUniform(1<<15, 33)
	c := New(d.Values, Options{Shards: 1, Index: pieceOpts()})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			gen := workload.NewUniform(workload.Count, d.Domain, 0.002, uint64(50+r))
			for !stop.Load() {
				q := gen.Next()
				// Inserts land above the domain, so in-domain answers
				// never change.
				if n, _, _ := c.Count(qctx, q.Lo, q.Hi); n != d.TrueCount(q.Lo, q.Hi) {
					t.Errorf("reader Count[%d,%d) = %d, want %d", q.Lo, q.Hi, n, d.TrueCount(q.Lo, q.Hi))
					return
				}
			}
		}(r)
	}
	want := slices.Clone(d.Values)
	next := d.Domain
	for round := 0; round < 40; round++ {
		for i := 0; i < 50; i++ {
			next++
			if err := c.Insert(qctx, next); err != nil {
				t.Fatal(err)
			}
			want = append(want, next)
		}
		before := c.CrackBoundaries()[0]
		if _, ok := c.ApplyShard(0); !ok {
			t.Fatalf("round %d: nothing to apply", round)
		}
		after := c.CrackBoundaries()[0]
		for _, b := range before {
			if _, ok := slices.BinarySearch(after, b); !ok {
				t.Fatalf("round %d: boundary %d existed before the apply and is gone", round, b)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(want)
	if !slices.Equal(sortedValues(c), want) {
		t.Fatal("final contents differ from base plus every insert")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
