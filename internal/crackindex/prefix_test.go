package crackindex

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/cracker"
	"adaptix/internal/directory"
	"adaptix/internal/workload"
)

// prefixRef is the sorted-reference oracle for range sums: the answer
// to Sum(lo, hi) is a difference of two prefix sums of the sorted
// column (wrapping exactly like the index's own arithmetic).
type prefixRef struct {
	sorted []int64
	prefix []int64
}

func newPrefixRef(vals []int64) prefixRef {
	r := prefixRef{sorted: slices.Clone(vals)}
	slices.Sort(r.sorted)
	r.prefix = make([]int64, len(vals)+1)
	for i, v := range r.sorted {
		r.prefix[i+1] = r.prefix[i] + v
	}
	return r
}

func (r prefixRef) rank(v int64) int { i, _ := slices.BinarySearch(r.sorted, v); return i }

func (r prefixRef) sum(lo, hi int64) int64 {
	if lo >= hi {
		return 0
	}
	return r.prefix[r.rank(hi)] - r.prefix[r.rank(lo)]
}

func (r prefixRef) count(lo, hi int64) int64 {
	if lo >= hi {
		return 0
	}
	return int64(r.rank(hi) - r.rank(lo))
}

// seeded lays the values below top out piece by piece around the given
// increasing cut values and builds an index over that array the way a
// shard rebuild or a recovery does (NewOwned), including a boundary at
// top: an empty tail piece when top is above every value, which is what
// a shard's top edge looks like once cracked.
func seeded(vals []int64, cuts []int64, top int64, opts Options) *Index {
	edges := append(slices.Clone(cuts), top)
	pieces := make([][]int64, len(edges))
	for _, v := range vals {
		i, found := slices.BinarySearch(edges, v)
		if found {
			i++
		}
		if i < len(edges) {
			pieces[i] = append(pieces[i], v)
		}
	}
	out := make([]int64, 0, len(vals))
	seeds := make([]BoundaryPosition, len(edges))
	for i, piece := range pieces {
		out = append(out, piece...)
		seeds[i] = BoundaryPosition{Value: edges[i], Pos: len(out)}
	}
	return NewOwned(out, summed(out, seeds), opts)
}

// TestSumFromBoundariesMatchesReference: however the boundaries of an
// index came to be — cracked by queries on a lazily built index, seeded
// by a rebuild or a recovery, or added as waiters' bounds and sampled
// quantiles — each carries the sum of the values below it, so
// Sum agrees with the sorted reference for every shape of bound pair,
// in both layouts and all three latch modes, cold and again once both
// bounds exist.
func TestSumFromBoundariesMatchesReference(t *testing.T) {
	rng := workload.NewRNG(29)
	vals := make([]int64, 6000)
	for i := range vals {
		vals[i] = rng.Int64n(10000) - 5000 // duplicates, both signs
	}
	ref := newPrefixRef(vals)
	cuts := []int64{-3000, 0, 2500}
	const top = 5000 // above every value

	builds := []struct {
		name  string
		build func(opts Options) *Index
	}{
		{"New", func(opts Options) *Index { return New(vals, opts) }},
		{"NewOwned with seeds", func(opts Options) *Index { return seeded(vals, cuts, top, opts) }},
		{"group and aux pivots", func(opts Options) *Index {
			opts.GroupCracking = true
			ix := New(vals, opts)
			ix.auxMin = 64
			if opts.Latching != LatchPiece {
				ix.Count(-100, 100)
				return ix
			}
			// Park three cracks on the one piece; the first granted
			// cracks for all of them and adds quantile cuts.
			ix.ensureInit(&opCtx{})
			head := ix.latchOf(ix.dir.Floor(minKey))
			head.Lock(0)
			var wg sync.WaitGroup
			for _, v := range []int64{-4000, 300, 4100} {
				queued := head.QueuedWriters()
				wg.Add(1)
				go func() { defer wg.Done(); ix.crackBound(directory.Ref{}, v, &opCtx{}) }()
				for head.QueuedWriters() == queued {
					runtime.Gosched()
				}
			}
			head.Unlock()
			wg.Wait()
			return ix
		}},
	}
	// a < b < c lie strictly inside one piece of every seeded
	// table ([-3000, 0)) and are no boundary of any.
	const a, b, c = -2000, -1000, -500
	bounds := []struct {
		name   string
		lo, hi int64
	}{
		{"same piece", a, b},
		{"both existing", a, b},
		{"one existing", a, c},
		{"other one existing", -2500, c},
		{"across pieces", -4321, 3210},
		{"to maxKey", c, maxKey},
		{"from minKey", minKey, b},
		{"whole domain", minKey, maxKey},
		{"empty range", b, b},
		{"inverted range", b, a},
		{"no rows", top + 5, top + 50},
		{"up to the top edge", a, top},
		{"only the empty tail", top, maxKey},
	}
	for _, bd := range builds {
		for _, opts := range everyMode() {
			ix := bd.build(opts)
			for pass := 0; pass < 2; pass++ { // second pass: every bound exists
				for _, q := range bounds {
					if got, _ := ix.Sum(q.lo, q.hi); got != ref.sum(q.lo, q.hi) {
						t.Fatalf("%s %+v pass %d, %s: Sum[%d,%d) = %d, want %d",
							bd.name, opts, pass, q.name, q.lo, q.hi, got, ref.sum(q.lo, q.hi))
					}
					if got, _ := ix.Count(q.lo, q.hi); got != ref.count(q.lo, q.hi) {
						t.Fatalf("%s %+v pass %d, %s: Count[%d,%d) = %d, want %d",
							bd.name, opts, pass, q.name, q.lo, q.hi, got, ref.count(q.lo, q.hi))
					}
				}
				if err := ix.Validate(); err != nil {
					t.Fatalf("%s %+v pass %d: %v", bd.name, opts, pass, err)
				}
			}
		}
	}
}

// TestSumWrapsLikeTheReference: prefix sums are int64 and wrap, and a
// difference of two wrapped prefixes is still the exact range sum
// whenever that sum itself fits — here the values below the queried
// range sum to −2⁶⁴ and the ones above it to +2⁶⁴.
func TestSumWrapsLikeTheReference(t *testing.T) {
	const big = int64(1) << 62
	vals := []int64{
		big + 4, -big - 1, 7, big + 1, -big - 4, 11, -big - 2, big + 3, 5, -big - 3, big + 2, -3,
	}
	ref := newPrefixRef(vals)
	queries := [][2]int64{
		{-10, 100},          // 7 + 11 + 5 − 3, above four values near −2⁶²
		{big + 1, big + 2},  // one value, above everything else
		{-big - 4, -big},    // four values: the sum itself wraps, and must wrap the same way
		{minKey, maxKey},    // everything cancels to the small values
		{-big - 2, big + 3}, // across both wraps
	}
	for _, opts := range everyMode() {
		for _, ix := range []*Index{New(vals, opts), seeded(vals, []int64{-big, 0, big}, math.MaxInt64-1, opts)} {
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					if got, _ := ix.Sum(q[0], q[1]); got != ref.sum(q[0], q[1]) {
						t.Fatalf("%+v pass %d: Sum[%d,%d) = %d, want %d", opts, pass, q[0], q[1], got, ref.sum(q[0], q[1]))
					}
				}
				if err := ix.Validate(); err != nil {
					t.Fatalf("%+v pass %d: %v", opts, pass, err)
				}
			}
		}
	}
	if got := ref.sum(-10, 100); got != 20 {
		t.Fatalf("reference itself: %d", got)
	}
}

// TestValidateCatchesCorruptPrefixSum: the prefix-sum invariant is part
// of Validate, so every test that validates an index checks it.
func TestValidateCatchesCorruptPrefixSum(t *testing.T) {
	d := workload.NewUniqueUniform(4096, 3)
	lazy := New(d.Values, Options{})
	lazy.Sum(1000, 2000)
	// The owned, value-only successor has no rowIDs to check: the prefix
	// sums must be caught all the same.
	for _, ix := range []*Index{lazy, carry(lazy)} {
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		// Entries are immutable: corrupt one by rebuilding the table with
		// it changed — entry 1 is the first real boundary, the last the
		// maxKey sentinel whose prefix sum is the total.
		entries := slices.Collect(ix.dir.Ascend)
		for _, i := range []int{1, len(entries) - 1} {
			entries[i].Sum++
			ix.dir.Build(entries)
			if err := ix.Validate(); err == nil || !strings.Contains(err.Error(), "prefix sum") {
				t.Fatalf("rowIDs %t: corrupt prefix sum of entry %d passed Validate: %v", ix.HasRowIDs(), i, err)
			}
			entries[i].Sum--
		}
		ix.dir.Build(entries)
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConvergedSumTakesNoLatch is the paper's claim (c) — the cost of
// concurrency control decays as the workload evolves — at its end
// point: on an index of more than 10 000 pieces, a Sum whose bounds
// both exist emits no latch event at all and visits no row, however
// many pieces its range spans. (Aggregating piece by piece, it emitted
// a want/acquire/release triple per piece.)
func TestConvergedSumTakesNoLatch(t *testing.T) {
	const n, every = 1 << 17, 8
	vals := make([]int64, n)
	var seeds []BoundaryPosition
	for i := range vals {
		vals[i] = int64(i)
		if i > 0 && i%every == 0 {
			seeds = append(seeds, BoundaryPosition{Value: int64(i), Pos: i})
		}
	}
	var events atomic.Int64
	ix := NewOwned(vals, summed(vals, seeds), Options{Tracer: func(TraceEvent) { events.Add(1) }})
	if ix.NumPieces() < 10000 {
		t.Fatalf("only %d pieces", ix.NumPieces())
	}
	for _, q := range [][2]int64{{every, n - every}, {800, 100000}, {4096, 4104}, {16, maxKey}} {
		lo, hi := q[0], min(q[1], n)
		got, st := ix.Sum(q[0], q[1])
		if want := (lo + hi - 1) * (hi - lo) / 2; got != want {
			t.Fatalf("Sum[%d,%d) = %d, want %d", q[0], q[1], got, want)
		}
		if st.Touched != 0 || st.Conflicts != 0 || st.Refine != 0 {
			t.Fatalf("Sum[%d,%d) on existing bounds: %+v", q[0], q[1], st)
		}
	}
	if e := events.Load(); e != 0 {
		t.Fatalf("%d latch events for sums between existing boundaries, want 0", e)
	}
	// The tracer does see a sum that has to crack.
	ix.Sum(803, 100000)
	if events.Load() == 0 {
		t.Fatal("a cracking sum emitted no event: the tracer is not wired")
	}
}

// TestWideSumsWhileCrackingInside: four clients sum wide ranges over a
// finely cracked index — mostly between existing boundaries, where the
// answer is read off the table of contents without a latch — while two
// others keep cracking new boundaries inside those ranges. Cracks only
// permute rows inside one piece, so no answer may ever differ from the
// reference. Run with -race.
func TestWideSumsWhileCrackingInside(t *testing.T) {
	const n = 1 << 16
	d := workload.NewUniqueUniform(n, 17)
	ref := newPrefixRef(d.Values)
	for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
		rng := workload.NewRNG(5)
		cuts := make([]int64, 1500)
		for i := range cuts {
			cuts[i] = 1 + rng.Int64n(n-1)
		}
		slices.Sort(cuts)
		ix := seeded(d.Values, slices.Compact(cuts), n, Options{Layout: layout})
		existing := ix.Boundaries()
		var stop atomic.Bool
		var crackers, readers sync.WaitGroup
		for c := 0; c < 2; c++ {
			crackers.Add(1)
			go func(seed uint64) {
				defer crackers.Done()
				r := workload.NewRNG(seed)
				for !stop.Load() {
					lo := r.Int64n(n)
					hi := lo + 1 + r.Int64n(64)
					if got, _ := ix.Count(lo, hi); got != ref.count(lo, hi) {
						t.Errorf("Count[%d,%d) = %d, want %d", lo, hi, got, ref.count(lo, hi))
						return
					}
				}
			}(uint64(100 + c))
		}
		for c := 0; c < 4; c++ {
			readers.Add(1)
			go func(seed uint64) {
				defer readers.Done()
				r := workload.NewRNG(seed)
				for i := 0; i < 3000; i++ {
					lo := existing[r.Intn(len(existing)/2)]
					hi := existing[len(existing)/2+r.Intn(len(existing)/2)]
					if i%8 == 0 { // now and then a bound that is not there yet
						hi = lo + 1 + r.Int64n(n/2)
					}
					if got, _ := ix.Sum(lo, hi); got != ref.sum(lo, hi) {
						t.Errorf("Sum[%d,%d) = %d, want %d", lo, hi, got, ref.sum(lo, hi))
						return
					}
				}
			}(uint64(200 + c))
		}
		readers.Wait()
		stop.Store(true)
		crackers.Wait()
		if err := ix.Validate(); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
	}
}
