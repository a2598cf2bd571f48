package metrics

import (
	"math"
	"testing"
	"time"
)

// Every representable boundary value must map into a bucket whose
// [low, nextLow) range contains it, and bucket lows must be strictly
// increasing.
func TestBucketMapping(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo := bucketLow(i)
		if bucketOf(lo) != i {
			t.Fatalf("bucketOf(bucketLow(%d)=%d) = %d", i, lo, bucketOf(lo))
		}
		if i > 0 && lo <= bucketLow(i-1) {
			t.Fatalf("bucket lows not increasing at %d: %d <= %d", i, lo, bucketLow(i-1))
		}
		mid := bucketMid(i)
		if bucketOf(mid) != i {
			t.Fatalf("bucketOf(bucketMid(%d)=%d) = %d", i, mid, bucketOf(mid))
		}
	}
	cases := []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, math.MaxInt64}
	for _, v := range cases {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, i)
		}
		if bucketLow(i) > v {
			t.Fatalf("bucketLow(%d)=%d > value %d", i, bucketLow(i), v)
		}
		if i+1 < histBuckets && bucketLow(i+1) <= v {
			t.Fatalf("value %d belongs in bucket %d but next low is %d", v, i, bucketLow(i+1))
		}
	}
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("negative values should clamp to bucket 0, got %d", got)
	}
}

// Quantile readout must be within one sub-bucket (6.25%) of the true
// value on a known distribution.
func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if got := s.Count(); got != 10000 {
		t.Fatalf("Count = %d, want 10000", got)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 5000}, {0.99, 9900}, {0.999, 9990}} {
		got := s.Quantile(tc.q)
		if relErr(got, tc.want) > 1.0/16 {
			t.Fatalf("Quantile(%g) = %d, want ~%d (rel err %.3f)", tc.q, got, tc.want, relErr(got, tc.want))
		}
	}
	if want := int64(10000 * 10001 / 2); s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
}

func relErr(got, want int64) float64 {
	return math.Abs(float64(got-want)) / float64(want)
}

// Hot-path recording must not allocate: the acceptance criterion for
// instrumenting query and write paths.
func TestRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Histogram.Record allocates %v per op", n)
	}
	fl := NewFlight(64)
	if n := testing.AllocsPerRun(100, func() { fl.Record(EvQuery, 3, time.Millisecond, 1, 2) }); n != 0 {
		t.Fatalf("Flight.Record allocates %v per op", n)
	}
	ob := NewObserver(ObserverOptions{})
	if n := testing.AllocsPerRun(100, func() {
		ob.RecordQuery(time.Time{}, time.Microsecond, time.Microsecond, time.Microsecond)
		ob.RecordLatchWait(time.Microsecond, false)
		ob.RecordWriterPark(0, time.Microsecond)
		ob.RecordFsync(time.Microsecond)
		ob.RecordCommitBatch(8)
	}); n != 0 {
		t.Fatalf("Observer recording allocates %v per op", n)
	}
	var nilOb *Observer
	if n := testing.AllocsPerRun(100, func() {
		nilOb.RecordQuery(nilOb.QueryStart(), 0, 0, 0)
		nilOb.RecordLatchWait(0, true)
	}); n != 0 {
		t.Fatalf("nil Observer recording allocates %v per op", n)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(EvQuery, 0, time.Microsecond, 1, 2)
	}
}

// TestDerivedZerosNeverCountAValue races recorders of all-non-zero
// query costs against snapshots: the derived bucket 0 must stay empty
// in every snapshot (the ordering contract of RecordQuery and
// Snapshot), and the final snapshot counts every query (run under
// -race in CI).
func TestDerivedZerosNeverCountAValue(t *testing.T) {
	ob := NewObserver(ObserverOptions{})
	const writers, perWriter = 4, 20000
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWriter; i++ {
				ob.RecordQuery(time.Time{}, time.Duration(1+i%7), time.Duration(1+i%5), time.Duration(1+i%3))
			}
		}()
	}
	check := func(final bool) {
		for _, h := range []*Histogram{ob.queryWait, ob.queryCrack, ob.queryCritical} {
			s := h.Snapshot()
			if s.Counts[0] != 0 {
				t.Fatalf("derived bucket 0 = %d with no zero-valued query", s.Counts[0])
			}
			if final && s.Count() != writers*perWriter {
				t.Fatalf("histogram counts %d queries, want %d", s.Count(), writers*perWriter)
			}
		}
	}
	for running := writers; running > 0; {
		select {
		case <-done:
			running--
		default:
			check(false)
		}
	}
	check(true)
}
