// The coarse-granular build: a fresh column is laid out by ONE range
// scatter — every row is copied once, straight to its place in its
// shard's cracker array — and the scatter ranges are not just the shards
// but cache-sized pieces inside them, so the copy the loader has to make
// anyway leaves every shard with a table of contents ("Main Memory
// Adaptive Indexing for Multi-core Systems", Alvarez et al., 2014: the
// coarse-granular index, and its chunk-parallel form P-CGI).
package shard

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"adaptix/internal/crackindex"
	"adaptix/internal/kernel"
	"adaptix/internal/workload"
)

// pieceTarget is the number of rows a piece of a fresh shard holds, about:
// the build cuts every shard's range at equi-depth quantiles of a sample
// that far apart. Below it everything stays query-driven — the build only
// range-partitions, it sorts nothing, and a piece is refined when and
// where a query bound falls into it. A first crack then partitions one
// such piece, not a whole shard; that is the entire point, and the
// smaller the piece the cheaper it is, and the shorter the critical
// section two clients can collide on — until the search over the cut
// table (one more level per doubling) and the scatter's write streams
// (one cache line each) cost the build more than the queries save. It is
// a constant, not an option: swept over 512 / 1 Ki / 2 Ki / 4 Ki on 4 Mi
// rows, 4 shards, 2 cores (three seeds each, with the sample and the
// table of contents as they are here), the build takes 86-117 / 71-100 /
// 66-88 / 61-82 ms, and a fresh column then answers 1024 uniform 1 %
// queries at 88-98 k / 81-98 k / 70-73 k / 49-51 k ops/s, p90 28 / 23-33
// / 32-36 / 37-53 us, and a sequential sweep at 139-145 k / 115-122 k /
// 84-92 k / 66-77 k ops/s, p90 16-18 / 15-24 / 68-77 / 79-84 us. The
// sweep's tail collapses only at 1 Ki and below (its pieces are then
// partitioned whole within a few queries); uniform queries gain nothing
// below 1 Ki, while the build pays another level and twice the streams.
// Build plus the first 1024 queries is still least at 4 Ki on two cores
// (≈ 87-93 ms, 104-107 at 1 Ki): the build is paid once, the pieces'
// critical sections by every cold query of the column's life.
//
// Its relation to crackindex's auxMinPiece (16 Ki rows) is written there.
const pieceTarget = 1 << 10

// samplesPerPiece is how many sample points stand for one piece when the
// cuts are chosen: a piece's row count then spreads by about 1/sqrt(32)
// = 18 % around the target and stays under twice the target even at the
// tail of thousands of pieces.
const samplesPerPiece = 32

// maxPieceSample caps that sample, so that it does not grow with the
// piece count: 64 Ki points, 16 per piece on 4 Mi rows, where pieces
// spread by about a quarter and the widest of 4 Ki is 2.0-2.2 × the
// target (seeds 1-3). Drawn and radix-sorted on two workers it costs a
// build what a 32 Ki-point sample drawn anywhere and comparison-sorted on
// one did (4 Mi rows: 6.8-7.5 against 6.2-7.3 ms; 9.6-10.5 on one worker).
const maxPieceSample = 64 << 10

// sampleBlock is the number of sample draws one random stream makes.
const sampleBlock = 4 << 10

// minChunkRows is the least input one build worker is started for.
const minChunkRows = 64 << 10

// buildWorkers is the number of goroutines a build of n rows runs its two
// passes on. Any count gives the same arrays (see build), so this is a
// matter of speed only.
func buildWorkers(n int) int {
	return min(runtime.GOMAXPROCS(0), 4, 1+n/minChunkRows)
}

// router answers "how many of these cut values are <= v", i.e. which of
// the ranges the cuts delimit v belongs to, without a branch: the cuts
// sit in breadth-first (Eytzinger) order, padded with maxKey to a full
// binary tree, and a search is `levels` steps of k = 2k + 1 + (cut <= v).
// A fresh column's rows arrive in no order, so a branching search
// mispredicts every other step; measured on 4 Mi shuffled rows over 1024
// cuts: sort.Search 298 ms, a branching halving 258 ms, an arithmetic
// halving over the sorted table 47 ms, this layout 33 ms (route, four
// searches in flight). The shard map routes every write and every query's
// first shard through the same search (of).
type router struct {
	tree   []int64
	levels int
	n      int // cuts; the rest of tree is padding
}

func newRouter(cuts []int64) router {
	levels := bits.Len(uint(len(cuts)))
	r := router{tree: make([]int64, 1<<levels-1), levels: levels, n: len(cuts)}
	r.fill(cuts, 0)
	return r
}

// fill lays the subtree rooted at slot k out in order, consuming the
// sorted cuts, and returns what is left of them.
func (r *router) fill(cuts []int64, k int) []int64 {
	if k >= len(r.tree) {
		return cuts
	}
	cuts = r.fill(cuts, 2*k+1)
	r.tree[k] = maxKey
	if len(cuts) > 0 {
		r.tree[k], cuts = cuts[0], cuts[1:]
	}
	return r.fill(cuts, 2*k+2)
}

// of returns the number of cuts <= v. (The min is for v == maxKey, which
// the padding compares <= to as well.)
func (r *router) of(v int64) int {
	var k uint
	for range r.levels {
		k = 2*k + 1 + uint(kernel.B2U(r.tree[k] <= v))
	}
	return min(int(k)-len(r.tree), r.n)
}

// bucketAgg is what pass 1 learns about one bucket: its rows and their
// sum.
type bucketAgg struct {
	n   int
	sum int64
}

// search4 is of, unclamped, for four values at once: each search is a
// chain of dependent loads, and four of them in flight keep the core
// busy. A function of its own so that the loop holds nothing but the
// four cursors and values — inlined into route it spills them.
func search4(tree []int64, levels int, v0, v1, v2, v3 int64) (k0, k1, k2, k3 uint) {
	for range levels {
		k0 = 2*k0 + 1 + uint(kernel.B2U(tree[k0] <= v0))
		k1 = 2*k1 + 1 + uint(kernel.B2U(tree[k1] <= v1))
		k2 = 2*k2 + 1 + uint(kernel.B2U(tree[k2] <= v2))
		k3 = 2*k3 + 1 + uint(kernel.B2U(tree[k3] <= v3))
	}
	return k0, k1, k2, k3
}

// route is pass 1 over one chunk of the input: ids[i] becomes the bucket
// of vals[i], and agg the chunk's histogram.
func (r *router) route(vals []int64, ids []uint32, agg []bucketAgg) {
	base, last := uint(len(r.tree)), uint(r.n)
	ids = ids[:len(vals)]
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
		k0, k1, k2, k3 := search4(r.tree, r.levels, v0, v1, v2, v3)
		k0, k1, k2, k3 = min(k0-base, last), min(k1-base, last), min(k2-base, last), min(k3-base, last)
		ids[i], ids[i+1], ids[i+2], ids[i+3] = uint32(k0), uint32(k1), uint32(k2), uint32(k3)
		agg[k0].n++
		agg[k0].sum += v0
		agg[k1].n++
		agg[k1].sum += v1
		agg[k2].n++
		agg[k2].sum += v2
		agg[k3].n++
		agg[k3].sum += v3
	}
	for ; i < len(vals); i++ {
		k := r.of(vals[i])
		ids[i] = uint32(k)
		agg[k].n++
		agg[k].sum += vals[i]
	}
}

// scatter is pass 2 over one chunk of the input: every row goes to the
// next free slot of its bucket, in the array of the shard that owns the
// bucket. next holds this chunk's own slots, so chunks never meet.
func scatter(vals []int64, ids []uint32, next []int, owner []int32, arrs [][]int64) {
	ids = ids[:len(vals)]
	for i, v := range vals {
		b := ids[i]
		arrs[owner[b]][next[b]] = v
		next[b]++
	}
}

// inChunks cuts [0, n) into one contiguous chunk per worker, runs f on
// all of them at once — the first on the caller's goroutine — and waits.
func inChunks(workers, n int, f func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	f(0, 0, n/workers)
	wg.Wait()
}

// sortedSample returns size seeded draws from values (all of them when
// there are no more than that), sorted, drawn and sorted on up to
// workers goroutines. Draw i comes from the i-th of size equal strata of
// the input, at a seeded offset — so an input that arrives in key order
// is cut at its exact quantiles, and any other no worse than by draws
// from anywhere — and every block of sampleBlock draws has a random
// stream of its own: the points, and hence the sorted sample, are a
// function of (values, size, seed) whatever the worker count. Each
// worker radix-sorts the blocks it drew; the runs are then merged.
func sortedSample(values []int64, size int, seed uint64, workers int) []int64 {
	n := len(values)
	if n <= size {
		return slices.Sorted(slices.Values(values))
	}
	sample, buf := make([]int64, size), make([]int64, size)
	blocks := (size + sampleBlock - 1) / sampleBlock
	workers = min(workers, blocks)
	runs := make([]int, workers+1) // worker w's run is sample[runs[w]:runs[w+1]]
	inChunks(workers, blocks, func(w, lo, hi int) {
		from, to := lo*sampleBlock, min(hi*sampleBlock, size)
		runs[w+1] = to
		for b := lo; b < hi; b++ {
			r := workload.NewRNG(seed + uint64(b)*0x9e3779b97f4a7c15)
			for i := b * sampleBlock; i < min((b+1)*sampleBlock, size); i++ {
				a, z := i*n/size, (i+1)*n/size
				sample[i] = values[a+r.Intn(z-a)]
			}
		}
		radixSort(sample[from:to], buf[from:to])
	})
	for w := 1; w < workers; w++ { // a few runs, merged in a millisecond or less
		mid, end := runs[w], runs[w+1]
		mergeInto(buf[:end], sample[:mid], sample[mid:end])
		copy(sample, buf[:end])
	}
	return sample
}

// radixSort sorts a, one byte of the (sign-flipped) keys at a time from
// the least significant, with buf as scratch of the same length. Bytes
// every key shares take no pass, so a sample of keys below 2^24 takes
// three: 1.8 ms for 64 Ki points of 4 Mi unique rows, where slices.Sort
// takes 9 ms and the draw itself 5.5 ms (one core).
func radixSort(a, buf []int64) {
	if len(a) == 0 {
		return
	}
	const flip = 1 << 63
	var count [8][256]int
	for _, v := range a {
		u := uint64(v) ^ flip
		for d := range count {
			count[d][byte(u>>(8*d))]++
		}
	}
	src, dst := a, buf
	for d := range count {
		c := &count[d]
		if c[byte((uint64(a[0])^flip)>>(8*d))] == len(a) {
			continue
		}
		pos := 0
		for i, k := range c {
			c[i], pos = pos, pos+k
		}
		for _, v := range src {
			b := byte((uint64(v) ^ flip) >> (8 * d))
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// mergeInto merges the sorted a and b into dst, which holds exactly both.
func mergeInto(dst, a, b []int64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			dst[k], i = a[i], i+1
		} else {
			dst[k], j = b[j], j+1
		}
	}
}

// pieceCuts returns the cut values a fresh column is scattered at: the
// shard bounds and, inside the range of every shard expected to hold two
// target-sized pieces or more, the equi-depth quantiles of a seeded
// sample that cut it into such pieces. Strictly increasing; no cut at or
// below the smallest sampled value.
func pieceCuts(values, bounds []int64, target int, seed uint64, workers int) []int64 {
	n := len(values)
	if n < 2*target {
		return bounds
	}
	sample := sortedSample(values, min(samplesPerPiece*(n/target), maxPieceSample), seed, workers)
	cuts := make([]int64, 0, len(bounds)+n/target)
	floor, lo := sample[0], 0
	for s := 0; s <= len(bounds); s++ {
		hiVal := int64(maxKey)
		if s < len(bounds) {
			hiVal = bounds[s]
		}
		hi, _ := slices.BinarySearch(sample, hiVal) // the shard's samples: sample[lo:hi]
		pieces := (hi - lo) * n / len(sample) / target
		for j := 1; j < pieces; j++ {
			if cut := sample[lo+j*(hi-lo)/pieces]; cut > floor {
				cuts = append(cuts, cut)
				floor = cut
			}
		}
		if s < len(bounds) {
			cuts = append(cuts, hiVal)
			floor = hiVal
		}
		lo = hi
	}
	return cuts
}

// build lays a fresh column out: shard i holds the values in
// [bounds[i-1], bounds[i]), and inside its array they stand piece by
// piece in the order of pieceCuts, each piece's rows in input order.
//
// Two passes over the input, both chunk-parallel. Pass 1 (route) finds
// every row's bucket and each chunk's per-bucket row count and sum; an
// exclusive prefix over (bucket, chunk) then gives every chunk its own
// slots in every bucket, and every bucket its start and prefix sum in
// its shard — the seeds of the shard's table of contents. Pass 2
// (scatter) copies each row to its slot. Because a bucket takes the
// chunks' rows in chunk order, the arrays and seeds do not depend on the
// number of workers: a column is a pure function of (values, bounds,
// target, Seed). An input too small for two pieces in any shard has the
// shard bounds as its only cuts and comes out as one unrefined piece per
// shard.
func build(values, bounds []int64, opts Options, target, workers int) *Column {
	if opts.Source != nil {
		// A custom source can take no seeds: its shards are cut out of the
		// input and nothing more, their rows in input order.
		target = len(values) + 1
	}
	cuts := pieceCuts(values, bounds, target, opts.Seed, workers)
	rt := newRouter(cuts)
	nb := len(cuts) + 1

	ids := make([]uint32, len(values)) // transient: dropped when build returns
	hist := make([]bucketAgg, workers*nb)
	inChunks(workers, len(values), func(w, lo, hi int) {
		rt.route(values[lo:hi], ids[lo:hi], hist[w*nb:(w+1)*nb])
	})

	next := make([]int, workers*nb)
	owner := make([]int32, nb)
	arrs := make([][]int64, len(bounds)+1)
	seeds := make([][]crackindex.BoundaryPosition, len(arrs))
	s, pos, sum := 0, 0, int64(0) // the current shard, and how far into it the buckets so far reach
	place := func(b int) {
		owner[b] = int32(s)
		for w := range workers {
			next[w*nb+b] = pos
			pos += hist[w*nb+b].n
			sum += hist[w*nb+b].sum
		}
	}
	place(0)
	for b, cut := range cuts { // bucket b+1 starts at cut: a new shard, or a new piece of this one
		if s < len(bounds) && cut == bounds[s] {
			arrs[s] = make([]int64, pos)
			s, pos, sum = s+1, 0, 0
		} else {
			seeds[s] = append(seeds[s], crackindex.BoundaryPosition{Value: cut, Pos: pos, Sum: sum})
		}
		place(b + 1)
	}
	arrs[s] = make([]int64, pos)

	inChunks(workers, len(values), func(w, lo, hi int) {
		scatter(values[lo:hi], ids[lo:hi], next[w*nb:(w+1)*nb], owner, arrs)
	})

	img := Image{Bounds: bounds, Shards: make([]ShardImage, len(arrs))}
	for i := range arrs {
		img.Shards[i] = ShardImage{Values: arrs[i], Seeds: seeds[i]}
	}
	return Restore(img, opts)
}
