// Fuzz target for the full index query surface: an arbitrary column is
// cracked by an arbitrary pair of range queries under a fuzzed
// layout / latch-mode / conflict-policy configuration, and every Count
// and Sum answer must match a naive predicate scan. Validate audits the piece structure after
// each refinement, so a crack that produces the right aggregate but a
// corrupt piece list still fails.
package crackindex

import (
	"encoding/binary"
	"math"
	"testing"

	"adaptix/internal/cracker"
)

// fuzzVals decodes data as little-endian int64s, dropping the tail
// that does not fill 8 bytes. MaxInt64 is clamped to MaxInt64-1: the
// index reserves it as the tail piece's open upper bound (see maxKey),
// so the value domain is [MinInt64, MaxInt64) — with no value equal to
// the sentinel, a query bound of MaxInt64 ("to the end") agrees with
// the reference predicate v < MaxInt64.
func fuzzVals(data []byte) []int64 {
	vals := make([]int64, 0, len(data)/8)
	for len(data) >= 8 {
		v := int64(binary.LittleEndian.Uint64(data))
		if v == math.MaxInt64 {
			v--
		}
		vals = append(vals, v)
		data = data[8:]
	}
	return vals
}

// fuzzSeed encodes int64 values for corpus seeds.
func fuzzSeed(vs ...int64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// refCountSum is the trivially correct reference: one predicate scan.
func refCountSum(vals []int64, lo, hi int64) (n, s int64) {
	for _, v := range vals {
		if v >= lo && v < hi {
			n++
			s += v
		}
	}
	return n, s
}

// fuzzOpts maps the fuzzed mode byte onto an index configuration, so
// the corpus explores every layout / latch-mode / policy combination
// rather than only the default.
func fuzzOpts(mode byte) Options {
	var o Options
	switch mode % 3 {
	case 0:
		o.Latching = LatchPiece
	case 1:
		o.Latching = LatchColumn
	default:
		o.Latching = LatchNone
	}
	if mode&4 != 0 {
		o.Layout = cracker.LayoutPairs
	}
	if mode&8 != 0 && o.Latching != LatchNone {
		o.OnConflict = Skip
	}
	if mode&16 != 0 && o.Latching == LatchPiece {
		o.ParallelBounds = true
	}
	return o
}

func FuzzCountSumVsReference(f *testing.F) {
	// Seeds: empty column, extreme values with MaxInt64-1 bounds, a
	// duplicate-heavy column queried at its single hot value, inverted
	// bounds, and a narrow crack followed by a wide sum.
	f.Add([]byte{}, byte(0), int64(0), int64(10), int64(-5), int64(5))
	f.Add(fuzzSeed(math.MaxInt64-1, math.MaxInt64-2, 0, -1, math.MinInt64),
		byte(0), int64(math.MaxInt64-1), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(fuzzSeed(5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5),
		byte(4), int64(5), int64(6), int64(0), int64(5))
	f.Add(fuzzSeed(3, 1, 4, 1, 5, 9, 2, 6), byte(1), int64(3), int64(1), int64(1), int64(6))
	// Crack narrowly, then sum widely across the pieces that left: the
	// wide answer is read off boundary prefix sums.
	f.Add(fuzzSeed(31, -4, 15, 9, -26, 5, 3, 58, -9, 7, 9, 32, -3, 8, 46, 2),
		byte(0), int64(7), int64(9), int64(-10), int64(40))

	f.Fuzz(func(t *testing.T, data []byte, mode byte, lo1, hi1, lo2, hi2 int64) {
		vals := fuzzVals(data)
		if len(vals) > 1<<12 {
			vals = vals[:1<<12]
		}
		ix := New(vals, fuzzOpts(mode))
		ix.auxMin = 8 // columns here hold at most 4096 rows: let them take quantile cuts
		check := func(phase string, lo, hi int64) {
			t.Helper()
			wantN, wantS := refCountSum(vals, lo, hi)
			if got, _ := ix.Count(lo, hi); got != wantN {
				t.Fatalf("%s: Count(%d,%d) = %d, want %d", phase, lo, hi, got, wantN)
			}
			if got, _ := ix.Sum(lo, hi); got != wantS {
				t.Fatalf("%s: Sum(%d,%d) = %d, want %d", phase, lo, hi, got, wantS)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s: after (%d,%d): %v", phase, lo, hi, err)
			}
		}
		check("q1", lo1, hi1)
		check("q2", lo2, hi2)
		// Repeat q1 on the now-cracked structure: boundaries exist, so
		// the answer comes purely from piece positions.
		check("q1-warm", lo1, hi1)
	})
}
