package cracker

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"adaptix/internal/workload"
)

var bothLayouts = []Layout{LayoutSplit, LayoutPairs}

// checkAlignment verifies that every (rowID, value) pair still refers
// to the original base column: reorganization must never separate a
// value from its row id.
func checkAlignment(t *testing.T, a *Array, base []int64) {
	t.Helper()
	for i := 0; i < a.Len(); i++ {
		if base[a.RowID(i)] != a.Value(i) {
			t.Fatalf("pos %d: rowID %d has value %d, base says %d",
				i, a.RowID(i), a.Value(i), base[a.RowID(i)])
		}
	}
}

// checkMultiset verifies the array is a permutation of base.
func checkMultiset(t *testing.T, a *Array, base []int64) {
	t.Helper()
	got := a.Values()
	want := append([]int64(nil), base...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multiset changed at sorted pos %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestNewAssignsPositionalRowIDs(t *testing.T) {
	base := []int64{30, 10, 20}
	for _, layout := range bothLayouts {
		a := New(base, layout)
		if a.Len() != 3 || a.Layout() != layout {
			t.Fatalf("%v: bad shape", layout)
		}
		for i := range base {
			if a.Value(i) != base[i] || a.RowID(i) != uint32(i) {
				t.Fatalf("%v: pos %d = (%d,%d)", layout, i, a.Value(i), a.RowID(i))
			}
		}
	}
}

func TestNewDoesNotAliasInput(t *testing.T) {
	base := []int64{5, 6, 7}
	a := New(base, LayoutSplit)
	base[0] = 99
	if a.Value(0) != 5 {
		t.Fatal("cracker array aliases the input slice")
	}
}

func TestCrackInTwoPostcondition(t *testing.T) {
	for _, layout := range bothLayouts {
		base := workload.NewUniqueUniform(1000, 42).Values
		a := New(base, layout)
		pos := a.CrackInTwo(0, a.Len(), 500)
		for i := 0; i < pos; i++ {
			if a.Value(i) >= 500 {
				t.Fatalf("%v: pos %d value %d >= pivot", layout, i, a.Value(i))
			}
		}
		for i := pos; i < a.Len(); i++ {
			if a.Value(i) < 500 {
				t.Fatalf("%v: pos %d value %d < pivot", layout, i, a.Value(i))
			}
		}
		if pos != 500 { // unique 0..999: exactly 500 values below 500
			t.Fatalf("%v: split pos %d, want 500", layout, pos)
		}
		checkAlignment(t, a, base)
		checkMultiset(t, a, base)
	}
}

func TestCrackInTwoSubrange(t *testing.T) {
	base := workload.NewUniqueUniform(1000, 1).Values
	a := New(base, LayoutSplit)
	mid := a.CrackInTwo(0, a.Len(), 600)
	// Crack only the left part again.
	p := a.CrackInTwo(0, mid, 200)
	for i := 0; i < p; i++ {
		if a.Value(i) >= 200 {
			t.Fatalf("pos %d: %d >= 200", i, a.Value(i))
		}
	}
	for i := p; i < mid; i++ {
		if v := a.Value(i); v < 200 || v >= 600 {
			t.Fatalf("pos %d: %d outside [200,600)", i, v)
		}
	}
	for i := mid; i < a.Len(); i++ {
		if a.Value(i) < 600 {
			t.Fatalf("pos %d: %d < 600", i, a.Value(i))
		}
	}
	checkAlignment(t, a, base)
}

func TestCrackInTwoEdgePivots(t *testing.T) {
	base := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, layout := range bothLayouts {
		a := New(base, layout)
		if pos := a.CrackInTwo(0, a.Len(), 0); pos != 0 {
			t.Fatalf("%v: pivot below all: pos %d", layout, pos)
		}
		if pos := a.CrackInTwo(0, a.Len(), 100); pos != a.Len() {
			t.Fatalf("%v: pivot above all: pos %d", layout, pos)
		}
		checkMultiset(t, a, base)
	}
}

func TestCrackInTwoEmptyAndSingle(t *testing.T) {
	a := New([]int64{7}, LayoutSplit)
	if pos := a.CrackInTwo(0, 0, 5); pos != 0 {
		t.Fatalf("empty range: pos %d", pos)
	}
	if pos := a.CrackInTwo(0, 1, 7); pos != 0 {
		t.Fatalf("single equal: pos %d", pos)
	}
	if pos := a.CrackInTwo(0, 1, 8); pos != 1 {
		t.Fatalf("single below: pos %d", pos)
	}
}

func TestCrackInThreePostcondition(t *testing.T) {
	for _, layout := range bothLayouts {
		base := workload.NewUniqueUniform(1000, 9).Values
		a := New(base, layout)
		pa, pb := a.CrackInThree(0, a.Len(), 300, 700)
		if pa != 300 || pb != 700 {
			t.Fatalf("%v: positions (%d,%d), want (300,700)", layout, pa, pb)
		}
		for i := 0; i < pa; i++ {
			if a.Value(i) >= 300 {
				t.Fatalf("%v: left region violated at %d", layout, i)
			}
		}
		for i := pa; i < pb; i++ {
			if v := a.Value(i); v < 300 || v >= 700 {
				t.Fatalf("%v: middle region violated at %d: %d", layout, i, v)
			}
		}
		for i := pb; i < a.Len(); i++ {
			if a.Value(i) < 700 {
				t.Fatalf("%v: right region violated at %d", layout, i)
			}
		}
		checkAlignment(t, a, base)
		checkMultiset(t, a, base)
	}
}

func TestCrackInThreeEqualBounds(t *testing.T) {
	base := workload.NewUniqueUniform(100, 4).Values
	a := New(base, LayoutSplit)
	pa, pb := a.CrackInThree(0, a.Len(), 50, 50)
	if pa != pb || pa != 50 {
		t.Fatalf("equal bounds: (%d,%d)", pa, pb)
	}
}

func TestCrackInThreePanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for va > vb")
		}
	}()
	New([]int64{1, 2, 3}, LayoutSplit).CrackInThree(0, 3, 5, 2)
}

func TestCrackInThreeWithDuplicates(t *testing.T) {
	base := workload.NewDuplicates(2000, 50, 5).Values
	for _, layout := range bothLayouts {
		a := New(base, layout)
		pa, pb := a.CrackInThree(0, a.Len(), 10, 40)
		for i := 0; i < pa; i++ {
			if a.Value(i) >= 10 {
				t.Fatalf("%v: left violated", layout)
			}
		}
		for i := pa; i < pb; i++ {
			if v := a.Value(i); v < 10 || v >= 40 {
				t.Fatalf("%v: middle violated", layout)
			}
		}
		for i := pb; i < a.Len(); i++ {
			if a.Value(i) < 40 {
				t.Fatalf("%v: right violated", layout)
			}
		}
		checkMultiset(t, a, base)
		checkAlignment(t, a, base)
	}
}

func TestCrackPropertyQuick(t *testing.T) {
	for _, layout := range bothLayouts {
		layout := layout
		f := func(vals []int64, pivot int64) bool {
			a := New(vals, layout)
			pos := a.CrackInTwo(0, a.Len(), pivot)
			for i := 0; i < pos; i++ {
				if a.Value(i) >= pivot {
					return false
				}
			}
			for i := pos; i < a.Len(); i++ {
				if a.Value(i) < pivot {
					return false
				}
			}
			// Multiset preserved (checksum-ish: sort both).
			got, want := a.Values(), append([]int64(nil), vals...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
	}
}

func TestCrackInThreePropertyQuick(t *testing.T) {
	f := func(vals []int64, x, y int64) bool {
		va, vb := x, y
		if va > vb {
			va, vb = vb, va
		}
		for _, layout := range bothLayouts {
			a := New(vals, layout)
			pa, pb := a.CrackInThree(0, a.Len(), va, vb)
			if pa > pb || pa < 0 || pb > a.Len() {
				return false
			}
			for i := 0; i < pa; i++ {
				if a.Value(i) >= va {
					return false
				}
			}
			for i := pa; i < pb; i++ {
				if v := a.Value(i); v < va || v >= vb {
					return false
				}
			}
			for i := pb; i < a.Len(); i++ {
				if a.Value(i) < vb {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSumAndScans(t *testing.T) {
	base := []int64{5, 1, 9, 3, 7}
	for _, layout := range bothLayouts {
		a := New(base, layout)
		if got := a.Sum(0, 5); got != 25 {
			t.Fatalf("%v: Sum = %d", layout, got)
		}
		if got := a.Sum(1, 3); got != 10 {
			t.Fatalf("%v: partial Sum = %d", layout, got)
		}
		if got := a.ScanCount(0, 5, 3, 8); got != 3 { // 5, 3, 7
			t.Fatalf("%v: ScanCount = %d", layout, got)
		}
		if got := a.ScanSum(0, 5, 3, 8); got != 15 {
			t.Fatalf("%v: ScanSum = %d", layout, got)
		}
	}
}

func TestAppendRowIDs(t *testing.T) {
	base := []int64{5, 1, 9, 3, 7}
	for _, layout := range bothLayouts {
		a := New(base, layout)
		ids := a.AppendRowIDs(nil, 1, 4)
		if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
			t.Fatalf("%v: AppendRowIDs = %v", layout, ids)
		}
		ids = a.AppendRowIDsWhere(nil, 0, 5, 3, 8)
		// values 5,3,7 at rowIDs 0,3,4
		if len(ids) != 3 {
			t.Fatalf("%v: AppendRowIDsWhere = %v", layout, ids)
		}
		for _, id := range ids {
			v := base[id]
			if v < 3 || v >= 8 {
				t.Fatalf("%v: rowID %d value %d fails predicate", layout, id, v)
			}
		}
	}
}

func TestSortRange(t *testing.T) {
	base := workload.NewUniqueUniform(500, 13).Values
	for _, layout := range bothLayouts {
		a := New(base, layout)
		a.Sort(100, 400)
		for i := 101; i < 400; i++ {
			if a.Value(i-1) > a.Value(i) {
				t.Fatalf("%v: not sorted at %d", layout, i)
			}
		}
		checkAlignment(t, a, base)
		checkMultiset(t, a, base)
	}
}

func TestRowIDsCopy(t *testing.T) {
	a := New([]int64{4, 2}, LayoutPairs)
	ids := a.RowIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("RowIDs = %v", ids)
	}
	ids[0] = 99
	if a.RowID(0) == 99 {
		t.Fatal("RowIDs did not copy")
	}
}

// TestNewOwnedAdoptsSplitValuesAndViewsBothLayouts: an owned array
// adopts the slice itself (the point of owning: no second copy), keeps
// no rowID column, and cracks, views and sorts to the same values as
// New's id-carrying arrays in both layouts.
func TestNewOwnedAdoptsSplitValuesAndViewsBothLayouts(t *testing.T) {
	for _, layout := range bothLayouts {
		vals := []int64{30, 10, 20, 10}
		a, ref := NewOwned(vals), New(vals, layout)
		if a.Len() != 4 || a.Layout() != LayoutSplit || a.HasRowIDs() || !ref.HasRowIDs() {
			t.Fatalf("%v: bad shape", layout)
		}
		vals[0] = 99
		if a.Value(0) != 99 || ref.Value(0) != 30 {
			t.Fatalf("%v: owned array did not adopt its input, or New did not copy", layout)
		}
		vals[0] = 30
		pos := a.CrackInTwo(0, 4, 20)
		if refPos := ref.CrackInTwo(0, 4, 20); pos != refPos || !slices.Equal(a.Values(), ref.Values()) {
			t.Fatalf("%v: owned crack %v at %d, id-carrying %v at %d", layout, a.Values(), pos, ref.Values(), refPos)
		}
		lo, hi := a.View(0, pos, nil), a.View(pos, 4, nil)
		if len(lo) != 2 || lo[0] != 10 || lo[1] != 10 || !slices.Equal(lo, ref.View(0, pos, nil)) {
			t.Fatalf("%v: view below the crack = %v", layout, lo)
		}
		for _, v := range hi {
			if v < 20 {
				t.Fatalf("%v: view above the crack = %v", layout, hi)
			}
		}
		if got := a.View(1, 1, nil); len(got) != 0 {
			t.Fatalf("%v: empty view = %v", layout, got)
		}
		a.Sort(0, 4)
		ref.Sort(0, 4)
		if !slices.Equal(a.Values(), []int64{10, 10, 20, 30}) || !slices.Equal(a.Values(), ref.Values()) {
			t.Fatalf("%v: owned sort %v, id-carrying sort %v", layout, a.Values(), ref.Values())
		}
		checkAlignment(t, ref, []int64{30, 10, 20, 10})
	}
}

// TestValueOnlyRowIDsPanic: every method that returns row ids refuses a
// value-only array, and names the constructor that keeps them, instead
// of returning ids that name no base row.
func TestValueOnlyRowIDsPanic(t *testing.T) {
	for name, f := range map[string]func(a *Array){
		"RowID":             func(a *Array) { a.RowID(0) },
		"RowIDs":            func(a *Array) { a.RowIDs() },
		"AppendRowIDs":      func(a *Array) { a.AppendRowIDs(nil, 0, 0) },
		"AppendRowIDsWhere": func(a *Array) { a.AppendRowIDsWhere(nil, 0, 2, 0, 10) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "crackindex.New") {
					t.Fatalf("panic %q, want one naming crackindex.New", msg)
				}
			}()
			f(NewOwned([]int64{3, 1}))
		})
	}
}

// FuzzCrackMultiValueOnly is the differential test of the two partition
// bodies: the same input cracked on the same pivots (and sample) by an
// id-carrying array in each layout and by a value-only one must leave
// the same value order and the same splits, and the ids must still map
// every position to its original value. Values are a byte each (so
// duplicates abound) or, wide, eight bytes each (so the extremes of
// int64, where a subtracting compare would overflow, occur).
func FuzzCrackMultiValueOnly(f *testing.F) {
	f.Add([]byte{9, 3, 7, 1, 250, 3, 128, 0, 64}, []byte{3, 9}, []byte{5}, false)
	f.Add([]byte{5, 5, 5, 5}, []byte{5, 5, 6}, []byte{}, false)
	f.Add([]byte{}, []byte{1}, []byte{0, 200}, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{}, true)
	f.Fuzz(func(t *testing.T, data, pivotBytes, sampleBytes []byte, wide bool) {
		decode := func(b []byte) []int64 {
			var out []int64
			if wide {
				for ; len(b) >= 8; b = b[8:] {
					out = append(out, int64(binary.LittleEndian.Uint64(b)))
				}
				return out
			}
			for _, x := range b {
				out = append(out, int64(int8(x)))
			}
			return out
		}
		base, pivots, sample := decode(data), decode(pivotBytes), decode(sampleBytes)
		slices.Sort(pivots)
		slices.Sort(sample)
		owned := NewOwned(slices.Clone(base))
		want := make([]Split, len(pivots))
		owned.CrackMulti(0, owned.Len(), pivots, want, sample)
		for _, layout := range bothLayouts {
			a := New(base, layout)
			got := make([]Split, len(pivots))
			a.CrackMulti(0, a.Len(), pivots, got, sample)
			if !slices.Equal(got, want) {
				t.Fatalf("%v: splits %v, value-only %v", layout, got, want)
			}
			if !slices.Equal(a.Values(), owned.Values()) {
				t.Fatalf("%v: order %v, value-only %v", layout, a.Values(), owned.Values())
			}
			checkAlignment(t, a, base)
		}
	})
}

// TestCrackMultiPostcondition: every pivot gets the position its own
// crack-in-two would have found and the sum of the values below it,
// whatever sample steers the recursion — none, a faithful one, or one
// that has nothing to do with the data — and wherever the range starts.
func TestCrackMultiPostcondition(t *testing.T) {
	d := workload.NewDuplicates(5000, 700, 7)
	sorted := append([]int64(nil), d.Values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pivots := []int64{-5, 0, 13, 13, 250, 251, 699, 700, 9000}
	samples := map[string][]int64{
		"none":      nil,
		"faithful":  {40, 120, 200, 270, 350, 430, 500, 580, 660},
		"unrelated": {-90, -80, 5000, 6000, 7000},
		"unsorted":  {600, 3, 400},
	}
	for _, layout := range bothLayouts {
		for name, sample := range samples {
			a := New(d.Values, layout)
			out := make([]Split, len(pivots))
			a.CrackMulti(0, a.Len(), pivots, out, sample)
			for i, p := range pivots {
				if want := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= p }); out[i].Pos != want {
					t.Fatalf("%v/%s: pivot %d at %d, want %d", layout, name, p, out[i].Pos, want)
				}
				for j := 0; j < a.Len(); j++ {
					if (a.Value(j) < p) != (j < out[i].Pos) {
						t.Fatalf("%v/%s: value %d at pos %d on the wrong side of pivot %d", layout, name, a.Value(j), j, p)
					}
				}
				if want := a.Sum(0, out[i].Pos); out[i].Sum != want {
					t.Fatalf("%v/%s: pivot %d carries sum %d, the values below it sum to %d", layout, name, p, out[i].Sum, want)
				}
			}
			checkAlignment(t, a, d.Values)
			checkMultiset(t, a, d.Values)

			// An inner range: sums count from its own start.
			lo, hi := out[2].Pos, out[6].Pos // values in [13, 699)
			inner := make([]Split, 2)
			a.CrackMulti(lo, hi, []int64{100, 400}, inner, sample)
			for i, sp := range inner {
				if want := a.Sum(lo, sp.Pos); sp.Sum != want {
					t.Fatalf("%v/%s: inner split %d carries sum %d, want %d", layout, name, i, sp.Sum, want)
				}
			}
		}
	}
}

// TestCrackMultiPanicsOnUnsortedPivots: the positions of unsorted
// pivots would be silently wrong.
func TestCrackMultiPanicsOnUnsortedPivots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New([]int64{1, 2, 3}, LayoutSplit).CrackMulti(0, 3, []int64{2, 1}, make([]Split, 2), nil)
}

// TestCrackMultiAllocatesNothing: the index cracks through this kernel
// on every refinement, with pivots and positions in arrays on its stack.
func TestCrackMultiAllocatesNothing(t *testing.T) {
	d := workload.NewUniqueUniform(1<<10, 5)
	for _, layout := range bothLayouts {
		a := New(d.Values, layout)
		allocs := testing.AllocsPerRun(20, func() {
			var pivots = [5]int64{100, 300, 500, 700, 900}
			var sample = [9]int64{50, 150, 250, 350, 450, 550, 650, 750, 850}
			var out [5]Split
			a.CrackMulti(0, a.Len(), pivots[:], out[:], sample[:])
			if pa, pb := a.CrackInThree(0, a.Len(), 200, 800); pa != 200 || pb != 800 {
				t.Fatalf("CrackInThree = %d, %d", pa, pb)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: %v allocations per multi-pivot crack", layout, allocs)
		}
	}
}
