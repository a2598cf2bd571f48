package crackindex

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/cracker"
	"adaptix/internal/workload"
)

// everyMode is every latch mode crossed with both layouts (a NewOwned
// index is value-only in either).
func everyMode() []Options {
	var out []Options
	for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
		for _, mode := range []LatchMode{LatchPiece, LatchColumn, LatchNone} {
			out = append(out, Options{Layout: layout, Latching: mode})
		}
	}
	return out
}

// summed fills in every seed's prefix sum from the values, for tests
// that lay pieces out by hand without tracking it.
func summed(vals []int64, seeds []BoundaryPosition) []BoundaryPosition {
	var sum int64
	pos := 0
	for i := range seeds {
		for ; pos < seeds[i].Pos; pos++ {
			sum += vals[pos]
		}
		seeds[i].Sum = sum
	}
	return seeds
}

// carry copies ix piece by piece into a successor index, the way a
// shard rebuild does: the walk's pieces laid end to end, one seed per
// piece boundary.
func carry(ix *Index) *Index {
	var vals []int64
	var seeds []BoundaryPosition
	ix.WalkPieces(func(loVal, hiVal int64, piece []int64) {
		if loVal != minKey {
			seeds = append(seeds, BoundaryPosition{Value: loVal, Pos: len(vals)})
		}
		for _, v := range piece {
			if v < loVal || v >= hiVal {
				panic("walk handed out a value outside its piece's bounds")
			}
		}
		vals = append(vals, piece...)
	})
	return NewOwned(vals, summed(vals, seeds), ix.Options())
}

// TestWalkAndSeedRoundTrip: walking an index and seeding a successor
// from the walk reproduces the piece table exactly — same boundaries at
// the same positions, same multiset — in every latch mode and layout,
// without the successor cracking once; and the successor keeps working
// as an index afterwards.
func TestWalkAndSeedRoundTrip(t *testing.T) {
	d := workload.NewDuplicates(20000, 3000, 7)
	for _, opts := range everyMode() {
		ix := New(d.Values, opts)
		for _, q := range workload.Fixed(workload.NewUniform(workload.Count, 3000, 0.02, 11), 64) {
			ix.Count(q.Lo, q.Hi)
		}
		// Empty edge pieces: boundaries below the minimum and above the
		// maximum value.
		ix.Count(-5, 1<<40)

		next := carry(ix)
		if err := next.Validate(); err != nil {
			t.Fatalf("%+v: successor invalid: %v", opts, err)
		}
		if got, want := next.BoundaryPositions(), ix.BoundaryPositions(); !slices.Equal(got, want) {
			t.Fatalf("%+v: piece table changed in transit:\n got %v\nwant %v", opts, got, want)
		}
		if next.Stats().Cracks.Load() != 0 || next.Stats().CrackTime.Load() != 0 {
			t.Fatalf("%+v: seeding cracked", opts)
		}
		if next.HasRowIDs() || !ix.HasRowIDs() {
			t.Fatalf("%+v: the owned successor keeps row ids, or the lazy index lost them", opts)
		}
		if next.NumPieces() != ix.NumPieces() || next.Len() != len(d.Values) || !next.Initialized() {
			t.Fatalf("%+v: successor shape: %d pieces over %d rows", opts, next.NumPieces(), next.Len())
		}
		for _, q := range workload.Fixed(workload.NewUniform(workload.Sum, 3000, 0.05, 13), 64) {
			if got, _ := next.Sum(q.Lo, q.Hi); got != d.TrueSum(q.Lo, q.Hi) {
				t.Fatalf("%+v: successor Sum[%d,%d) = %d, want %d", opts, q.Lo, q.Hi, got, d.TrueSum(q.Lo, q.Hi))
			}
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("%+v: successor invalid after queries: %v", opts, err)
		}
	}
}

// TestSelectRowIDsPanicsOnOwnedIndex: an owned index stores values only,
// in either layout; asking it for row ids names the constructor that
// keeps them instead of cracking and returning ids that name no row.
func TestSelectRowIDsPanicsOnOwnedIndex(t *testing.T) {
	for _, opts := range everyMode() {
		ix := NewOwned([]int64{5, 1, 3}, nil, opts)
		if ix.HasRowIDs() || !New([]int64{5, 1, 3}, opts).HasRowIDs() {
			t.Fatalf("%+v: owned index keeps row ids, or a lazy one does not", opts)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "crackindex.New") {
					t.Fatalf("%+v: panic %q, want one naming crackindex.New", opts, msg)
				}
			}()
			ix.SelectRowIDs(0, 10)
		}()
		if ix.Stats().Cracks.Load() != 0 {
			t.Fatalf("%+v: the refused SelectRowIDs cracked", opts)
		}
	}
}

// TestNewOwnedEmptyAndUnseeded: the degenerate shapes a fresh or
// emptied shard produces.
func TestNewOwnedEmptyAndUnseeded(t *testing.T) {
	for _, opts := range everyMode() {
		empty := NewOwned(nil, []BoundaryPosition{{Value: 10, Pos: 0}}, opts)
		if n, _ := empty.Count(minKey, maxKey); n != 0 || empty.NumPieces() != 2 {
			t.Fatalf("%+v: empty seeded index: count %d, %d pieces", opts, n, empty.NumPieces())
		}
		if err := empty.Validate(); err != nil {
			t.Fatal(err)
		}
		one := NewOwned([]int64{5, 1, 3}, nil, opts)
		if n, _ := one.Count(2, 6); n != 2 || one.NumPieces() != 3 {
			t.Fatalf("%+v: unseeded index: count %d, %d pieces", opts, n, one.NumPieces())
		}
		if err := one.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewOwnedRejectsDisorderedSeeds: seeds that are not a piece table
// are a caller bug, caught at construction instead of as a wrong answer
// later.
func TestNewOwnedRejectsDisorderedSeeds(t *testing.T) {
	for name, seeds := range map[string][]BoundaryPosition{
		"value order": {{Value: 5, Pos: 1}, {Value: 5, Pos: 2}},
		"position":    {{Value: 5, Pos: 2}, {Value: 7, Pos: 1}},
		"beyond end":  {{Value: 5, Pos: 4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewOwned([]int64{1, 6, 8}, seeds, Options{})
		}()
	}
	// Validate, not the constructor, checks the values against the seeds.
	if err := NewOwned([]int64{9, 1}, []BoundaryPosition{{Value: 5, Pos: 1}}, Options{}).Validate(); err == nil {
		t.Error("Validate accepted values on the wrong side of a seed")
	}
	// Nor does the constructor re-sum what the caller says it summed.
	if err := NewOwned([]int64{1, 9}, []BoundaryPosition{{Value: 5, Pos: 1, Sum: 2}}, Options{}).Validate(); err == nil {
		t.Error("Validate accepted a seed whose prefix sum disagrees with the values")
	}
	if err := NewOwned([]int64{1, 9}, []BoundaryPosition{{Value: 5, Pos: 1, Sum: 1}}, Options{}).Validate(); err != nil {
		t.Errorf("a correctly summed seed: %v", err)
	}
}

// TestWalkWhileCracking: walks run back to back while readers crack the
// walked index (run with -race). Every walk must deliver the full
// multiset with every value inside its piece's bounds, and every
// boundary that existed before a walk started must be in its successor:
// a racing crack can only be missed, never break a piece already there.
func TestWalkWhileCracking(t *testing.T) {
	d := workload.NewUniqueUniform(1<<15, 21)
	want := slices.Clone(d.Values)
	slices.Sort(want)
	for _, opts := range []Options{
		{Latching: LatchPiece},
		{Latching: LatchPiece, Layout: cracker.LayoutPairs},
		{Latching: LatchColumn},
	} {
		ix := New(d.Values, opts)
		ix.auxMin = 256 // multi-pivot chains keep racing the walk, not only the first cracks
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				gen := workload.NewUniform(workload.Sum, d.Domain, 0.001, uint64(100+r))
				for !stop.Load() {
					q := gen.Next()
					if got, _ := ix.Sum(q.Lo, q.Hi); got != d.TrueSum(q.Lo, q.Hi) {
						t.Errorf("%+v: reader Sum[%d,%d) = %d", opts, q.Lo, q.Hi, got)
						return
					}
				}
			}(r)
		}
		for round := 0; round < 20; round++ {
			before := ix.Boundaries()
			next := carry(ix)
			if err := next.Validate(); err != nil {
				t.Fatalf("%+v round %d: %v", opts, round, err)
			}
			got := next.PhysicalValues()
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%+v round %d: walk lost or duplicated values", opts, round)
			}
			after := next.Boundaries()
			for _, b := range before {
				if _, ok := slices.BinarySearch(after, b); !ok {
					t.Fatalf("%+v round %d: boundary %d existed before the walk and is gone", opts, round, b)
				}
			}
		}
		stop.Store(true)
		wg.Wait()
	}
}
