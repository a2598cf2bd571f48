// Package cracker implements the cracker array, the physical data
// structure of database cracking (paper §5.2, Figure 7): a dense,
// auxiliary copy of a column that is continuously and incrementally
// reorganized (partitioned) as a side effect of query processing.
//
// Both physical layouts from Figure 7 are provided:
//
//   - LayoutPairs: one array of (rowID, value) pairs — the original
//     cracking design;
//   - LayoutSplit: a pair of aligned arrays, one of rowIDs and one of
//     values — the later design with better cache locality for
//     operators that touch only one of the two.
//
// An array built by NewOwned is value-only: it keeps no rowIDs.
//
// The reorganization kernels are crack-in-two (one pivot) and the
// multi-pivot crack built from it (CrackMulti: both query bounds, queued
// waiters' bounds and sampled quantiles applied to one piece in
// O(n log k)); crack-in-three is its two-pivot case.
//
// The package performs no synchronization: callers (the cracked-column
// index) latch the pieces they reorganize or read.
package cracker

import (
	"math/bits"
	"slices"
	"sort"

	"adaptix/internal/kernel"
)

// Layout selects the physical representation of the cracker array.
type Layout int

const (
	// LayoutSplit stores rowIDs and values in two aligned arrays.
	LayoutSplit Layout = iota
	// LayoutPairs stores an array of rowID-value pairs.
	LayoutPairs
)

// String returns the layout's display name.
func (l Layout) String() string {
	if l == LayoutPairs {
		return "pairs"
	}
	return "split"
}

// Pair is one rowID-value entry of the pairs layout.
type Pair struct {
	Value int64
	RowID uint32
}

// Array is a cracker array over int64 keys.
type Array struct {
	layout Layout
	pairs  []Pair   // LayoutPairs
	vals   []int64  // LayoutSplit, and a value-only array
	ids    []uint32 // LayoutSplit; nil in a value-only array
	n      int
}

// New builds a cracker array holding an auxiliary copy of values, with
// rowIDs assigned positionally (0-based), in the given layout. The
// input slice is not retained or modified.
func New(values []int64, layout Layout) *Array {
	if layout == LayoutPairs {
		a := &Array{layout: layout, n: len(values), pairs: make([]Pair, len(values))}
		for i, v := range values {
			a.pairs[i] = Pair{Value: v, RowID: uint32(i)}
		}
		return a
	}
	a := &Array{layout: layout, n: len(values), vals: slices.Clone(values), ids: make([]uint32, len(values))}
	for i := range a.ids {
		a.ids[i] = uint32(i)
	}
	return a
}

// NewOwned builds a value-only cracker array that takes ownership of
// values: values itself becomes the array (no copy; the caller must not
// touch the slice afterwards), with no rowID column. It is the
// constructor for callers that assembled the physical order themselves
// (a shard build's scatter, a rebuild carrying pieces over): that order
// names no base row and their queries read values only. Layout reports
// LayoutSplit; the methods returning rowIDs panic.
func NewOwned(values []int64) *Array {
	return &Array{layout: LayoutSplit, n: len(values), vals: values}
}

// HasRowIDs reports whether the array keeps a rowID per value: true for
// New, false for a value-only array (NewOwned).
func (a *Array) HasRowIDs() bool { return a.layout == LayoutPairs || a.ids != nil }

// mustHaveRowIDs panics on a value-only array.
func (a *Array) mustHaveRowIDs() {
	if !a.HasRowIDs() {
		panic("cracker: rowIDs of a value-only array (NewOwned): build with crackindex.New to keep row ids")
	}
}

// Len returns the number of entries.
func (a *Array) Len() int { return a.n }

// Layout returns the physical layout of the array.
func (a *Array) Layout() Layout { return a.layout }

// Value returns the key at position i.
func (a *Array) Value(i int) int64 {
	if a.layout == LayoutPairs {
		return a.pairs[i].Value
	}
	return a.vals[i]
}

// RowID returns the base-table row id at position i. It panics on a
// value-only array (NewOwned).
func (a *Array) RowID(i int) uint32 {
	if a.layout == LayoutPairs {
		return a.pairs[i].RowID
	}
	a.mustHaveRowIDs()
	return a.ids[i]
}

// CrackInTwo partitions positions [lo, hi) in place so that all values
// < pivot precede all values >= pivot, and returns the split position:
// the first position whose value is >= pivot (== hi if none).
// This is one step of the "incremental quicksort" that cracking
// performs (paper §2, Figure 2).
func (a *Array) CrackInTwo(lo, hi int, pivot int64) int {
	pos, _ := a.crackInTwo(lo, hi, pivot)
	return pos
}

// crackInTwo is CrackInTwo that also returns the sum of the values
// below the split position, accumulated in the partition pass itself
// (one AND and one ADD on a value and flag the loop already holds): the
// index keeps it with the boundary and never reads those rows to sum.
// A value-only array takes Partition: an ids != nil test inside the
// id-carrying loop measured no faster than carrying the ids.
func (a *Array) crackInTwo(lo, hi int, pivot int64) (pos int, below int64) {
	switch {
	case a.layout == LayoutPairs:
		return crackInTwoPairs(a.pairs, lo, hi, pivot)
	case a.ids == nil:
		pos, below = Partition(a.vals[lo:hi], pivot)
		return lo + pos, below
	}
	return crackInTwoSplit(a.vals, a.ids, lo, hi, pivot)
}

// Partition is crack-in-two on a value-only slice: it reorders vals so
// that all values < pivot precede all values >= pivot and returns the
// split position and the sum of the values below it — crackInTwoSplit
// without the rowID column, 8 B moved per row instead of 12. A
// value-only array cracks through it; a shard split cuts the piece its
// cut falls into with it. The flag is the borrow of SUB/SBB on
// sign-flipped keys, which depends on the row's value alone: the SETcc
// of kernel.B2U merges into a register the compiler last used for the
// vals[pos] load, chaining each row to the previous row's position
// (2× slower; BenchmarkMicro_CrackInTwo_Owned).
func Partition(vals []int64, pivot int64) (pos int, below int64) {
	const sign = 1 << 63
	p := uint64(pivot) ^ sign
	for i, v := range vals {
		vals[i] = vals[pos]
		vals[pos] = v
		_, lt := bits.Sub64(uint64(v)^sign, p, 0)
		pos += int(lt)
		below += v & -int64(lt)
	}
	return pos, below
}

// crackInTwoSplit is a branch-free Lomuto partition. An uncracked
// piece holds values in random physical order, so the comparison
// outcome is unpredictable and a branching partition spends most of
// its time in mispredict stalls; here every element pays the same
// unconditional swap and the boundary advances by a flag (SETcc), so
// the loop runs at memory speed regardless of the data.
//
// Invariant at the top of iteration i: vals[lo:j) < pivot and
// vals[j:i) >= pivot. Swapping vals[i] and vals[j] unconditionally
// preserves it in both cases — if v < pivot the first >=pivot element
// moves to i and j extends over v; if v >= pivot both touched slots
// hold >=pivot values and j stays.
func crackInTwoSplit(vals []int64, ids []uint32, lo, hi int, pivot int64) (int, int64) {
	j := lo
	var below int64
	for i := lo; i < hi; i++ {
		v, id := vals[i], ids[i]
		vals[i], ids[i] = vals[j], ids[j]
		vals[j], ids[j] = v, id
		lt := kernel.B2U(v < pivot)
		j += int(lt)
		below += v & -int64(lt)
	}
	return j, below
}

func crackInTwoPairs(pairs []Pair, lo, hi int, pivot int64) (int, int64) {
	j := lo
	var below int64
	for i := lo; i < hi; i++ {
		p := pairs[i]
		pairs[i] = pairs[j]
		pairs[j] = p
		lt := kernel.B2U(p.Value < pivot)
		j += int(lt)
		below += p.Value & -int64(lt)
	}
	return j, below
}

// CrackInThree partitions positions [lo, hi) in place into three
// regions — values < a, values in [a, b), values >= b — and returns
// (posA, posB): the first position >= a and the first position >= b.
// It requires a <= b. It is CrackMulti on the two bounds: a pass on b,
// then a pass on a over the below-b region only.
func (a *Array) CrackInThree(lo, hi int, va, vb int64) (posA, posB int) {
	if va > vb {
		panic("cracker: CrackInThree requires va <= vb")
	}
	if va == vb {
		p := a.CrackInTwo(lo, hi, va)
		return p, p
	}
	var out [2]Split
	a.crackMultiRec(lo, hi, 0, []int64{va, vb}, out[:], nil)
	return out[0].Pos, out[1].Pos
}

// Split is one boundary CrackMulti made in positions [lo, hi): Pos is
// the first position whose value is >= the pivot, Sum the sum of the
// values at positions [lo, Pos) (wrapping like any int64 sum).
type Split struct {
	Pos int
	Sum int64
}

// CrackMulti partitions positions [lo, hi) on all pivots at once and
// stores one Split per pivot in out (len(out) must equal len(pivots)).
// Pivots must be sorted ascending. Nothing is allocated: the index
// cracks through this kernel on every refinement, with pivots and out
// in fixed arrays on its stack.
//
// Every level is one branch-free crack-in-two pass over its range and
// the two sides recurse within their sub-ranges, so k pivots cost
// O(n log k), not k passes. Which pivot a level cracks on decides how
// many rows the deeper levels touch again: sample, when non-empty, is a
// sorted sample of the range's values, and each level cracks on the
// pivot next to the median of the sample values in its range — the one
// expected to halve it; with no sample it is the median pivot. A level
// fused over several pivots (one pass, one conditional swap per pivot
// and row) was measured against this recursion on the 1 Mi-row rung
// column and lost: 273 against 328 Mrows/s on two pivots, 152 against
// 291 on three — the partition is bound by its swaps, not by memory, so
// a second branch-free pass is cheaper than a second swap per row (and
// far cheaper than a Dutch-national-flag pass, whose three-way branch
// mispredicts on an uncracked piece's random order).
//
// This is also the kernel of the "dynamic algorithms" extension
// sketched in the paper's §7: when several queries wait to crack the
// same piece, the query holding the latch refines the index for all
// waiting requests in one step.
func (a *Array) CrackMulti(lo, hi int, pivots []int64, out []Split, sample []int64) {
	if !slices.IsSorted(pivots) {
		panic("cracker: CrackMulti pivots not sorted")
	}
	a.crackMultiRec(lo, hi, 0, pivots, out[:len(pivots)], sample)
}

// crackMultiRec cracks [lo, hi); base is the sum of the values between
// the outermost lo and this one, so every Split.Sum counts from there.
func (a *Array) crackMultiRec(lo, hi int, base int64, pivots []int64, out []Split, sample []int64) {
	if len(pivots) == 0 {
		return
	}
	m := len(pivots) / 2
	if len(sample) > 0 {
		m, _ = slices.BinarySearch(pivots, sample[len(sample)/2])
		m = min(m, len(pivots)-1)
	}
	pos, below := a.crackInTwo(lo, hi, pivots[m])
	out[m] = Split{Pos: pos, Sum: base + below}
	k, _ := slices.BinarySearch(sample, pivots[m])
	a.crackMultiRec(lo, pos, base, pivots[:m], out[:m], sample[:k])
	a.crackMultiRec(pos, hi, base+below, pivots[m+1:], out[m+1:], sample[k:])
}

// Sum returns the sum of values at positions [lo, hi).
func (a *Array) Sum(lo, hi int) int64 {
	if a.layout == LayoutPairs {
		var s0, s1 int64
		ps := a.pairs[lo:hi]
		var j int
		for ; j+2 <= len(ps); j += 2 {
			s0 += ps[j].Value
			s1 += ps[j+1].Value
		}
		if j < len(ps) {
			s0 += ps[j].Value
		}
		return s0 + s1
	}
	return kernel.Sum(a.vals[lo:hi])
}

// ScanCount counts values v with va <= v < vb among positions [lo, hi)
// by predicate scan (branch-free chunked kernel). Used when refinement
// is skipped under conflict-avoidance: the piece is read without being
// reorganized.
func (a *Array) ScanCount(lo, hi int, va, vb int64) int64 {
	if a.layout == LayoutPairs {
		var c int64
		for _, p := range a.pairs[lo:hi] {
			c += int64(kernel.B2U(p.Value >= va) & kernel.B2U(p.Value < vb))
		}
		return c
	}
	return kernel.CountRange(a.vals[lo:hi], va, vb)
}

// ScanSum sums values v with va <= v < vb among positions [lo, hi) by
// predicate scan (branch-free chunked kernel).
func (a *Array) ScanSum(lo, hi int, va, vb int64) int64 {
	if a.layout == LayoutPairs {
		var s int64
		for _, p := range a.pairs[lo:hi] {
			v := p.Value
			s += v & -int64(kernel.B2U(v >= va)&kernel.B2U(v < vb))
		}
		return s
	}
	return kernel.SumRange(a.vals[lo:hi], va, vb)
}

// AppendRowIDs appends the rowIDs at positions [lo, hi) to dst and
// returns the extended slice. It implements the output side of the
// select operator in the Figure 6 plan. It panics on a value-only array
// (NewOwned).
func (a *Array) AppendRowIDs(dst []uint32, lo, hi int) []uint32 {
	a.mustHaveRowIDs()
	if a.layout == LayoutPairs {
		for _, p := range a.pairs[lo:hi] {
			dst = append(dst, p.RowID)
		}
		return dst
	}
	return append(dst, a.ids[lo:hi]...)
}

// AppendRowIDsWhere appends the rowIDs of values v with va <= v < vb
// among positions [lo, hi) to dst and returns the extended slice. The
// predicate is evaluated as one branch-free 64-row mask per chunk; the
// output loop then walks only the set bits, so sparse matches skip
// non-qualifying rows entirely instead of testing them one branch at
// a time. It panics on a value-only array (NewOwned).
func (a *Array) AppendRowIDsWhere(dst []uint32, lo, hi int, va, vb int64) []uint32 {
	a.mustHaveRowIDs()
	var buf [kernel.ChunkSize]int64
	for start := lo; start < hi; start += kernel.ChunkSize {
		end := min(start+kernel.ChunkSize, hi)
		for m := kernel.Mask64(a.View(start, end, buf[:0]), va, vb); m != 0; m &= m - 1 {
			dst = append(dst, a.RowID(start+bits.TrailingZeros64(m)))
		}
	}
	return dst
}

// Sort fully sorts positions [lo, hi) by value (stable order between
// equal values is not guaranteed). Used by the full-index baseline and
// by hybrid algorithms' sorted final partitions.
func (a *Array) Sort(lo, hi int) {
	if a.layout == LayoutPairs {
		s := a.pairs[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i].Value < s[j].Value })
		return
	}
	if a.ids == nil {
		slices.Sort(a.vals[lo:hi])
		return
	}
	sort.Sort(&splitSorter{vals: a.vals[lo:hi], ids: a.ids[lo:hi]})
}

type splitSorter struct {
	vals []int64
	ids  []uint32
}

func (s *splitSorter) Len() int           { return len(s.vals) }
func (s *splitSorter) Less(i, j int) bool { return s.vals[i] < s.vals[j] }
func (s *splitSorter) Swap(i, j int) {
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// View returns the values at positions [lo, hi) in physical order
// without copying where the layout allows it: in the split layout the
// result is a window onto the array itself, which the caller must treat
// as read-only and may use only while it excludes reorganization of
// those positions (the piece's read latch); in the pairs layout the
// values are gathered into buf, grown as needed.
func (a *Array) View(lo, hi int, buf []int64) []int64 {
	if a.layout != LayoutPairs {
		return a.vals[lo:hi:hi]
	}
	buf = buf[:0]
	for _, p := range a.pairs[lo:hi] {
		buf = append(buf, p.Value)
	}
	return buf
}

// Values returns a copy of the value array in current physical order.
// Intended for tests and visualization.
func (a *Array) Values() []int64 {
	return append(make([]int64, 0, a.n), a.View(0, a.n, nil)...)
}

// RowIDs returns a copy of the rowID array in current physical order.
// It panics on a value-only array (NewOwned).
func (a *Array) RowIDs() []uint32 {
	return a.AppendRowIDs(make([]uint32, 0, a.n), 0, a.n)
}
