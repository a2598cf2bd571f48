package metrics

import (
	"math"
	"testing"
)

func TestHeatmapBucketing(t *testing.T) {
	// Domain [0, 639]: span 639, width 639/64+1 = 10.
	h := NewHeatmap(0, 639)
	h.RecordKey(0)
	h.RecordKey(9)   // same first bucket
	h.RecordKey(10)  // second bucket
	h.RecordKey(639) // last in-domain bucket
	s := h.Snapshot()
	if s.BucketWidth != 10 {
		t.Fatalf("bucket width %d, want 10", s.BucketWidth)
	}
	if s.Writes[0] != 2 || s.Writes[1] != 1 || s.Writes[63] != 1 {
		t.Fatalf("writes = %v", s.Writes)
	}

	// A range query touches every overlapped bucket exactly once.
	h.RecordRangeN(5, 25, 1) // buckets 0..2 ([5,24] inclusive)
	s = h.Snapshot()
	for i, want := range []int64{1, 1, 1, 0} {
		if s.Reads[i] != want {
			t.Fatalf("reads[%d] = %d, want %d (reads %v)", i, s.Reads[i], want, s.Reads[:4])
		}
	}
	// An empty range still counts one read at its lower bound.
	h.RecordRangeN(12, 12, 1)
	if s := h.Snapshot(); s.Reads[1] != 2 {
		t.Fatalf("empty-range read not counted: %v", s.Reads[:4])
	}
}

func TestHeatmapClampsOutOfDomain(t *testing.T) {
	h := NewHeatmap(100, 200)
	h.RecordKey(-1000)
	h.RecordKey(1000)
	h.RecordRangeN(-50, 5000, 1)
	s := h.Snapshot()
	if s.Writes[0] != 1 || s.Writes[HeatBuckets-1] != 1 {
		t.Fatalf("out-of-domain keys did not clamp to edge buckets: %v", s.Writes)
	}
	for i := range s.Reads {
		if s.Reads[i] != 1 {
			t.Fatalf("domain-covering range missed bucket %d: %v", i, s.Reads)
		}
	}
}

func TestHeatmapFullInt64Domain(t *testing.T) {
	// The widest possible domain must not overflow the width math.
	h := NewHeatmap(math.MinInt64, math.MaxInt64)
	h.RecordKey(math.MinInt64)
	h.RecordKey(0)
	h.RecordKey(math.MaxInt64)
	s := h.Snapshot()
	if s.Writes[0] != 1 || s.Writes[HeatBuckets-1] != 1 {
		t.Fatalf("extremes landed wrong: first %d last %d", s.Writes[0], s.Writes[HeatBuckets-1])
	}
	var n int64
	for _, v := range s.Writes {
		n += v
	}
	if n != 3 {
		t.Fatalf("recorded %d writes, want 3", n)
	}
}

func TestHeatmapSliceGivesPerShardView(t *testing.T) {
	h := NewHeatmap(0, 639)
	h.RecordRangeN(0, 100, 1)   // buckets 0..9
	h.RecordRangeN(300, 320, 1) // buckets 30..31
	h.RecordKey(305)
	s := h.Snapshot()
	if r, w := s.Slice(0, 99); r != 10 || w != 0 {
		t.Fatalf("low-shard slice = %d reads %d writes, want 10/0", r, w)
	}
	if r, w := s.Slice(300, 319); r != 2 || w != 1 {
		t.Fatalf("hot-shard slice = %d reads %d writes, want 2/1", r, w)
	}
	if r, w := s.Slice(500, 639); r != 0 || w != 0 {
		t.Fatalf("cold-shard slice = %d/%d, want 0/0", r, w)
	}
	if r, w := s.Slice(10, 5); r != 0 || w != 0 {
		t.Fatalf("inverted slice = %d/%d, want 0/0", r, w)
	}
}

func TestHeatmapNilSafe(t *testing.T) {
	var h *Heatmap
	h.RecordRangeN(1, 2, 1)
	h.RecordKey(3)
	if s := h.Snapshot(); s.BucketWidth != 0 {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}

func TestObserverKeyDomainFirstWins(t *testing.T) {
	ob := NewObserver(ObserverOptions{})
	// Recording before the domain is known is a dropped no-op. A query
	// profile marks the heatmap on every profileSample-th query.
	for i := 0; i < profileSample; i++ {
		ob.RecordQueryProfile(0, 10, 1, 0, 1)
	}
	ob.RecordWriteKey(5)
	if s := ob.Heat(); s.BucketWidth != 0 {
		t.Fatalf("heat before SetKeyDomain = %+v, want zero", s)
	}
	ob.SetKeyDomain(0, 639)
	ob.SetKeyDomain(0, 1_000_000) // loses: first install wins
	for i := 0; i < profileSample; i++ {
		ob.RecordQueryProfile(0, 10, 1, 0, 1)
	}
	ob.RecordWriteKey(5)
	s := ob.Heat()
	if s.Hi != 639 {
		t.Fatalf("domain hi = %d, want first-wins 639", s.Hi)
	}
	if s.Reads[0] != profileSample || s.Writes[0] != 1 {
		t.Fatalf("post-domain recordings: reads[0]=%d writes[0]=%d, want %d and 1", s.Reads[0], s.Writes[0], profileSample)
	}
}

func TestConvergenceSeriesWindows(t *testing.T) {
	ob := NewObserver(ObserverOptions{})
	if got := ob.ConvergenceSeries(); len(got) != 0 {
		t.Fatalf("fresh series = %v, want empty", got)
	}
	// Three full windows with distinct means; a partial fourth window
	// must not publish a point.
	for _, mean := range []int64{1000, 100, 10} {
		for i := 0; i < ConvWindow; i++ {
			ob.RecordQueryProfile(0, 1, 1, 0, mean)
		}
	}
	ob.RecordQueryProfile(0, 1, 1, 0, 5)
	got := ob.ConvergenceSeries()
	if len(got) != 3 || got[0] != 1000 || got[1] != 100 || got[2] != 10 {
		t.Fatalf("series = %v, want [1000 100 10]", got)
	}
	// The touched histogram samples 1 query in profileSample with that
	// weight: every full window counts exactly, the lone query of the
	// fourth is not sampled.
	ts := ob.TouchedSnapshot()
	if n := ts.Count(); n != 3*ConvWindow {
		t.Fatalf("touched count = %d, want %d", n, 3*ConvWindow)
	}
}

func TestRoutingCounters(t *testing.T) {
	ob := NewObserver(ObserverOptions{})
	// One closed window, drained into the cold totals, plus a live
	// remainder still packed: both are read back at the sampling weight.
	const queries = ConvWindow + 2*profileSample
	for i := 0; i < queries; i++ {
		ob.RecordQueryProfile(0, 1, 4, 3, 1)
	}
	if v, c := ob.Routing(); v != 4*queries || c != 3*queries {
		t.Fatalf("routing = %d visited %d covered, want %d/%d", v, c, 4*queries, 3*queries)
	}
}

// The hot-path recording surface of the convergence/heatmap layer must
// stay allocation-free: these sit on every query and every write.
func TestConvergenceRecordingDoesNotAllocate(t *testing.T) {
	ob := NewObserver(ObserverOptions{})
	ob.SetKeyDomain(0, 1<<20)
	assertZeroAlloc := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, n)
		}
	}
	assertZeroAlloc("RecordQueryProfile", func() { ob.RecordQueryProfile(100, 5000, 4, 2, 123) })
	assertZeroAlloc("RecordWriteKey", func() { ob.RecordWriteKey(4242) })
	var nilOb *Observer
	assertZeroAlloc("nil observer", func() {
		nilOb.RecordQueryProfile(1, 2, 1, 0, 3)
		nilOb.RecordWriteKey(3)
	})
}
