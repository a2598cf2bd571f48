// Package kernel provides the branch-free, chunked aggregation
// kernels of the query hot paths: count, sum, and min/max over dense
// int64 vectors, with half-open range predicates evaluated as 64-row
// bitmasks.
//
// The design follows the vectorized-scan idiom (see kelindar/column
// and "Main Memory Adaptive Indexing for Multi-core Systems"): data is
// processed in ChunkSize-row chunks; a predicate over a chunk is
// materialized as one uint64 mask whose bit j reports whether row j
// qualifies; aggregation consumes the mask without branching (popcount
// for counts, masked adds for sums). Range checks are written as bool
// comparisons — never as sign-bit arithmetic on differences — so the
// kernels are exact over the full int64 domain, including predicates
// at MaxInt64-1 and columns containing MinInt64/MaxInt64.
//
// Everything here is allocation-free and synchronization-free: callers
// own the slices and any latching. The package is a leaf (imports only
// the standard library) so every layer — cracker array, baselines,
// epoch chains, shard aggregates — can use it without import cycles.
package kernel

import "math"

// ChunkSize is the number of rows processed per predicate mask: one
// uint64 bit per row.
const ChunkSize = 64

// B2U converts a bool to 0/1. The compiler lowers this pattern to a
// flag-materializing instruction (SETcc on amd64, CSET on arm64), so
// predicates built from it evaluate without a data-dependent branch —
// the one helper behind every branch-free loop: these kernels, the
// cracker's partition passes, and the shard build's cut search.
func B2U(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Mask64 returns the predicate bitmask of one chunk: bit j is set iff
// lo <= v[j] < hi. len(v) must be at most ChunkSize; rows beyond the
// length have their bits clear. The comparisons are evaluated
// branch-free for every row — on unsorted data this trades the
// unpredictable per-row branch (the scalar scan's dominant cost) for
// two flag materializations and an or-shift.
func Mask64(v []int64, lo, hi int64) uint64 {
	var m uint64
	var j int
	for ; j+4 <= len(v); j += 4 {
		m |= (B2U(v[j] >= lo) & B2U(v[j] < hi)) << uint(j)
		m |= (B2U(v[j+1] >= lo) & B2U(v[j+1] < hi)) << uint(j+1)
		m |= (B2U(v[j+2] >= lo) & B2U(v[j+2] < hi)) << uint(j+2)
		m |= (B2U(v[j+3] >= lo) & B2U(v[j+3] < hi)) << uint(j+3)
	}
	for ; j < len(v); j++ {
		m |= (B2U(v[j] >= lo) & B2U(v[j] < hi)) << uint(j)
	}
	return m
}

// CountRange counts the values of v in [lo, hi). The predicate is
// fused into four independent accumulator lanes — c += bit — so the
// loop carries no data-dependent branch and no cross-lane dependency
// (a single materialized mask word would serialize all 64 rows of a
// chunk through one or-shift chain).
func CountRange(v []int64, lo, hi int64) int64 {
	var c0, c1, c2, c3 int64
	var j int
	for ; j+4 <= len(v); j += 4 {
		x0, x1, x2, x3 := v[j], v[j+1], v[j+2], v[j+3]
		c0 += int64(B2U(x0 >= lo) & B2U(x0 < hi))
		c1 += int64(B2U(x1 >= lo) & B2U(x1 < hi))
		c2 += int64(B2U(x2 >= lo) & B2U(x2 < hi))
		c3 += int64(B2U(x3 >= lo) & B2U(x3 < hi))
	}
	for ; j < len(v); j++ {
		x := v[j]
		c0 += int64(B2U(x >= lo) & B2U(x < hi))
	}
	return c0 + c1 + c2 + c3
}

// SumRange sums the values of v in [lo, hi) by masked accumulation —
// s += x & -bit — across four independent lanes, so a non-qualifying
// row contributes a zero instead of a mispredicted branch.
func SumRange(v []int64, lo, hi int64) int64 {
	var s0, s1, s2, s3 int64
	var j int
	for ; j+4 <= len(v); j += 4 {
		x0, x1, x2, x3 := v[j], v[j+1], v[j+2], v[j+3]
		s0 += x0 & -int64(B2U(x0 >= lo)&B2U(x0 < hi))
		s1 += x1 & -int64(B2U(x1 >= lo)&B2U(x1 < hi))
		s2 += x2 & -int64(B2U(x2 >= lo)&B2U(x2 < hi))
		s3 += x3 & -int64(B2U(x3 >= lo)&B2U(x3 < hi))
	}
	for ; j < len(v); j++ {
		x := v[j]
		s0 += x & -int64(B2U(x >= lo)&B2U(x < hi))
	}
	return s0 + s1 + s2 + s3
}

// Sum returns the unconditional sum of v, unrolled over four
// independent accumulators (the position-based aggregation of pieces
// and sorted runs whose bounds are already known).
func Sum(v []int64) int64 {
	var s0, s1, s2, s3 int64
	var j int
	for ; j+4 <= len(v); j += 4 {
		s0 += v[j]
		s1 += v[j+1]
		s2 += v[j+2]
		s3 += v[j+3]
	}
	for ; j < len(v); j++ {
		s0 += v[j]
	}
	return s0 + s1 + s2 + s3
}

// Min returns the minimum of v (MaxInt64 for an empty slice).
func Min(v []int64) int64 {
	mn, _, _ := MinMaxSum(v)
	return mn
}

// Max returns the maximum of v (MinInt64 for an empty slice).
func Max(v []int64) int64 {
	_, mx, _ := MinMaxSum(v)
	return mx
}

// MinMaxSum computes min, max, and sum of v in one pass (the shard
// aggregate rebuild kernel). An empty slice yields the identity
// elements (MaxInt64, MinInt64, 0). The two-lane unroll keeps the
// min/max updates as conditional moves on independent lanes.
func MinMaxSum(v []int64) (mn, mx, sum int64) {
	if len(v) == 0 {
		return math.MaxInt64, math.MinInt64, 0
	}
	mn0, mx0 := v[0], v[0]
	mn1, mx1 := v[0], v[0]
	var s0, s1 int64
	var j int
	for ; j+2 <= len(v); j += 2 {
		a, b := v[j], v[j+1]
		s0 += a
		s1 += b
		if a < mn0 {
			mn0 = a
		}
		if a > mx0 {
			mx0 = a
		}
		if b < mn1 {
			mn1 = b
		}
		if b > mx1 {
			mx1 = b
		}
	}
	if j < len(v) {
		a := v[j]
		s0 += a
		if a < mn0 {
			mn0 = a
		}
		if a > mx0 {
			mx0 = a
		}
	}
	if mn1 < mn0 {
		mn0 = mn1
	}
	if mx1 > mx0 {
		mx0 = mx1
	}
	return mn0, mx0, s0 + s1
}
