package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"adaptix/internal/amerge"
	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/workload"
)

// buildWith is New with the piece target and the worker count chosen by
// the test: the default target leaves every input under 8 Ki rows per
// shard as one piece.
func buildWith(values []int64, opts Options, target, workers int) *Column {
	opts = opts.withDefaults()
	return build(values, chooseBounds(values, opts.Shards, opts.Seed), opts, target, workers)
}

// checkBuild holds a fresh column against a sort of its input (keys up to
// MaxInt64-1: maxKey is the sentinel no range [lo, hi) can include): every
// shard's array is exactly the multiset of its range, the seeded table
// of contents is a piece table of that array (Validate recomputes every
// position and prefix sum from the data), the array stores values only
// whatever the layout, nothing was cracked, and fresh Counts and Sums
// are the reference scan's.
func checkBuild(t *testing.T, values []int64, c *Column) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if ids := rowIDShards(c); len(ids) != 0 {
		t.Fatalf("shards %v keep row ids", ids)
	}
	sorted := slices.Sorted(slices.Values(values))
	m := c.m.Load()
	rest := sorted
	for i, p := range m.shards {
		n, _ := slices.BinarySearch(rest, p.hiVal)
		if i == len(m.shards)-1 {
			n = len(rest) // maxKey itself belongs to the last shard
		}
		if got := slices.Sorted(slices.Values(p.ix.PhysicalValues())); !slices.Equal(got, rest[:n]) {
			t.Fatalf("shard %d [%d,%d) holds %d rows, its range has %d (or other values)", i, p.loVal, p.hiVal, len(got), n)
		}
		rest = rest[n:]
		prev := crackindex.BoundaryPosition{Value: p.loVal}
		for _, b := range p.ix.BoundaryPositions() {
			if b.Value <= prev.Value || b.Value >= p.hiVal || b.Pos < prev.Pos {
				t.Fatalf("shard %d [%d,%d): seed %+v after %+v", i, p.loVal, p.hiVal, b, prev)
			}
			prev = b
		}
		if st := p.ix.Stats(); st.Cracks.Load() != 0 || st.AuxCuts.Load() != 0 {
			t.Fatalf("shard %d: the build cracked", i)
		}
	}
	prefix := make([]int64, len(sorted)+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	probes := []int64{minKey, maxKey}
	for i := 0; i < len(sorted); i += 1 + len(sorted)/7 {
		probes = append(probes, sorted[i], sorted[i]+1)
	}
	for _, lo := range probes {
		for _, hi := range probes {
			a, _ := slices.BinarySearch(sorted, lo)
			b, _ := slices.BinarySearch(sorted, hi)
			wantN, wantSum := int64(max(b-a, 0)), int64(0)
			if a < b {
				wantSum = prefix[b] - prefix[a]
			}
			if n, _, err := c.Count(qctx, lo, hi); err != nil || n != wantN {
				t.Fatalf("Count[%d,%d) = %d, %v; want %d", lo, hi, n, err, wantN)
			}
			if s, _, err := c.Sum(qctx, lo, hi); err != nil || s != wantSum {
				t.Fatalf("Sum[%d,%d) = %d, %v; want %d", lo, hi, s, err, wantSum)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("after the queries: %v", err)
	}
}

func TestBuildVsSort(t *testing.T) {
	r := workload.NewRNG(5)
	shuffled := func(n int, f func(i int) int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		r.Shuffle(vals)
		return vals
	}
	sorted := shuffled(3000, func(i int) int64 { return int64(i) * 3 })
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	inputs := map[string][]int64{
		"empty":      nil,
		"one":        {42},
		"few":        {5, -3, 9, 5, 0},
		"unique":     shuffled(5000, func(i int) int64 { return int64(i) }),
		"duplicates": shuffled(5000, func(i int) int64 { return int64(i % 13) }),
		"all equal":  shuffled(2000, func(int) int64 { return 7 }),
		"sorted":     sorted,
		"reversed":   reversed,
		"extremes": shuffled(4000, func(i int) int64 {
			switch i % 5 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64 - 1
			}
			return int64(i) - 2000
		}),
	}
	for name, vals := range inputs {
		for _, shards := range []int{1, 2, 4, 7} {
			for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
				// Targets from "more buckets than rows" to "one piece".
				for _, target := range []int{1, 16, 300, pieceTarget, 4 << 10} {
					t.Run(fmt.Sprintf("%s/s%d/%v/t%d", name, shards, layout, target), func(t *testing.T) {
						opts := Options{Shards: shards, Seed: 3, Index: crackindex.Options{Layout: layout}}
						checkBuild(t, vals, buildWith(vals, opts, target, 1+shards%3))
					})
				}
			}
		}
	}
}

// FuzzBuildVsSort: any values (a byte each, so duplicates abound, or
// eight bytes each), shard count, piece target, worker count and layout.
func FuzzBuildVsSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(4), uint8(2), uint8(3), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2), uint8(1), uint8(1), true)
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(7), uint8(3), uint8(4), false)
	f.Fuzz(func(t *testing.T, data []byte, shards, target, workers uint8, wide bool) {
		var vals []int64
		if wide {
			for ; len(data) >= 8; data = data[8:] {
				vals = append(vals, min(int64(binary.LittleEndian.Uint64(data)), math.MaxInt64-1))
			}
		} else {
			for _, b := range data {
				vals = append(vals, int64(int8(b)))
			}
		}
		opts := Options{Shards: 1 + int(shards%8), Seed: uint64(target), Index: crackindex.Options{Layout: cracker.Layout(workers % 2)}}
		checkBuild(t, vals, buildWith(vals, opts, 1+int(target%40), 1+int(workers%4)))
	})
}

// TestBuildLayoutIgnoresWorkerCount: the cuts, the arrays and the seeds
// are the same bytes however many workers laid them out — replays and
// recovery depend on a column being a function of its input alone. The
// second case builds at the default target from rows enough for a
// capped sample of 16 blocks, which four workers draw and sort in runs
// of their own before the runs are merged.
func TestBuildLayoutIgnoresWorkerCount(t *testing.T) {
	for _, c := range []struct {
		values         []int64
		target, pieces int
	}{
		{workload.NewDuplicates(100_003, 20_000, 9).Values, 256, 200},
		{workload.NewUniqueUniform(3<<20, 5).Values, pieceTarget, 2 << 10},
	} {
		opts := Options{Shards: 4, Seed: 2}
		bounds := chooseBounds(c.values, opts.Shards, opts.Seed)
		if size := min(samplesPerPiece*(len(c.values)/c.target), maxPieceSample); size <= 3*sampleBlock {
			t.Fatalf("%d rows, target %d: a sample of %d points is not drawn by four workers", len(c.values), c.target, size)
		}
		if one, four := pieceCuts(c.values, bounds, c.target, opts.Seed, 1), pieceCuts(c.values, bounds, c.target, opts.Seed, 4); !slices.Equal(one, four) {
			t.Fatalf("target %d: cuts differ between 1 and 4 workers", c.target)
		}
		one, four := buildWith(c.values, opts, c.target, 1), buildWith(c.values, opts, c.target, 4)
		if !slices.Equal(one.Bounds(), four.Bounds()) {
			t.Fatal("shard bounds differ")
		}
		a, b := one.m.Load().shards, four.m.Load().shards
		var pieces int
		for i := range a {
			if !slices.Equal(a[i].ix.PhysicalValues(), b[i].ix.PhysicalValues()) {
				t.Fatalf("target %d, shard %d: arrays differ between 1 and 4 workers", c.target, i)
			}
			if !slices.Equal(a[i].ix.BoundaryPositions(), b[i].ix.BoundaryPositions()) {
				t.Fatalf("target %d, shard %d: seeds differ between 1 and 4 workers", c.target, i)
			}
			pieces += a[i].ix.NumPieces()
		}
		if pieces < c.pieces {
			t.Fatalf("target %d: only %d pieces, the target did not take", c.target, pieces)
		}
	}
}

// TestSortedSampleIgnoresWorkerCount: the merged runs are one sorted
// sample of the strata, for every worker count, including counts that do
// not divide the sample's 16 blocks.
func TestSortedSampleIgnoresWorkerCount(t *testing.T) {
	values := workload.NewDuplicates(1<<20, 1<<30, 3).Values
	want := sortedSample(values, maxPieceSample, 7, 1)
	if len(want) != maxPieceSample || !slices.IsSorted(want) {
		t.Fatalf("one worker: %d points, sorted %t", len(want), slices.IsSorted(want))
	}
	for workers := 2; workers <= 7; workers++ {
		if got := sortedSample(values, maxPieceSample, 7, workers); !slices.Equal(got, want) {
			t.Fatalf("%d workers: the sample differs from one worker's", workers)
		}
	}
}

// TestFreshColumnStartsCoarse: at the default target a fresh column of
// 1 Mi rows is already cut into pieces of about the target, without one
// crack, and its first query partitions such pieces — not a shard.
func TestFreshColumnStartsCoarse(t *testing.T) {
	d := workload.NewUniqueUniform(1<<20, 4)
	c := New(d.Values, Options{Shards: 4})
	for _, st := range c.Snapshot() {
		if st.Cracks != 0 {
			t.Fatalf("shard %d: the build cracked", st.Shard)
		}
		if st.MaxPiece > 2*pieceTarget || st.Pieces < st.Rows/(2*pieceTarget) {
			t.Fatalf("shard %d: %d pieces over %d rows, the widest %d rows; target %d", st.Shard, st.Pieces, st.Rows, st.MaxPiece, pieceTarget)
		}
	}
	lo := d.Domain / 3
	n, st, err := c.Count(qctx, lo, lo+d.Domain/100)
	if err != nil || n != d.TrueCount(lo, lo+d.Domain/100) {
		t.Fatalf("first Count = %d, %v", n, err)
	}
	if st.Touched == 0 || st.Touched > 4*pieceTarget {
		t.Fatalf("the first query touched %d rows, want (0, %d]", st.Touched, 4*pieceTarget)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCustomSourceShardsGetNoSeeds: the scatter's pieces are knowledge
// only a cracked index can take; a custom source is built over the
// shard's values as before, in input order.
func TestCustomSourceShardsGetNoSeeds(t *testing.T) {
	d := workload.NewUniqueUniform(20_000, 6)
	opts := Options{Shards: 4, Seed: 8, Source: func(values []int64) engine.AggregateSource {
		return amerge.New(values, amerge.Options{})
	}}
	c := buildWith(d.Values, opts, 128, 2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, p := range c.m.Load().shards {
		var want []int64
		for _, v := range d.Values {
			if p.loVal <= v && v < p.hiVal {
				want = append(want, v)
			}
		}
		if p.ix != nil || len(want) == 0 || !slices.Equal(p.base, want) {
			t.Fatalf("shard %d: index %v, base of %d rows, its range holds %d in the input", i, p.ix, len(p.base), len(want))
		}
	}
	for _, q := range workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.05, 3), 64) {
		if s, _, err := c.Sum(qctx, q.Lo, q.Hi); err != nil || s != d.TrueSum(q.Lo, q.Hi) {
			t.Fatalf("Sum[%d,%d) = %d, %v; want %d", q.Lo, q.Hi, s, err, d.TrueSum(q.Lo, q.Hi))
		}
	}
}

// TestRouterMatchesUpperBound: the branch-free search agrees with the
// definition for every cut count around the tree sizes, at, between and
// beyond the cuts, and at both ends of the key space.
func TestRouterMatchesUpperBound(t *testing.T) {
	for n := 0; n <= 40; n++ {
		cuts := make([]int64, n)
		for i := range cuts {
			cuts[i] = int64(i)*10 - 100
		}
		if n > 2 {
			cuts[0], cuts[n-1] = math.MinInt64, math.MaxInt64
		}
		rt := newRouter(cuts)
		probes := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, c := range cuts {
			probes = append(probes, c-1, c, c+1)
		}
		ids := make([]uint32, len(probes))
		agg := make([]bucketAgg, n+1)
		rt.route(probes, ids, agg)
		for i, v := range probes {
			want := 0
			for _, c := range cuts {
				if c <= v {
					want++
				}
			}
			if got := rt.of(v); got != want || int(ids[i]) != want {
				t.Fatalf("%d cuts, v=%d: of %d, route %d, want %d", n, v, got, ids[i], want)
			}
		}
		var rows int
		for _, a := range agg {
			rows += a.n
		}
		if rows != len(probes) {
			t.Fatalf("%d cuts: histogram counts %d of %d rows", n, rows, len(probes))
		}
	}
}

// BenchmarkBuildPass times the two passes of the build alone, on the
// repo benchmark's shape (4 Mi shuffled unique rows, 4 shards), one
// worker: route is pass 1 (search + histogram), scatter pass 2 into
// arrays that exist already.
func BenchmarkBuildPass(b *testing.B) {
	d := workload.NewUniqueUniform(4<<20, 42)
	bounds := chooseBounds(d.Values, 4, 1)
	cuts := pieceCuts(d.Values, bounds, pieceTarget, 1, 1)
	rt := newRouter(cuts)
	nb := len(cuts) + 1
	ids := make([]uint32, len(d.Values))
	hist := make([]bucketAgg, nb)
	b.Run("route", func(b *testing.B) {
		b.SetBytes(int64(8 * len(d.Values)))
		for i := 0; i < b.N; i++ {
			clear(hist)
			rt.route(d.Values, ids, hist)
		}
	})
	clear(hist)
	rt.route(d.Values, ids, hist)
	owner := make([]int32, nb) // one array for all: the shard split adds nothing to the pass
	arrs := [][]int64{make([]int64, len(d.Values))}
	next := make([]int, nb)
	b.Run("scatter", func(b *testing.B) {
		b.SetBytes(int64(8 * len(d.Values)))
		for i := 0; i < b.N; i++ {
			pos := 0
			for j, h := range hist {
				next[j] = pos
				pos += h.n
			}
			scatter(d.Values, ids, next, owner, arrs)
		}
	})
}
