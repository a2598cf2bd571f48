// Lock-free log-linear histograms: the quantile kernel of the
// observability layer.
//
// A Histogram is a fixed array of atomic bucket counters indexed by a
// log-linear value scheme (16 linear sub-buckets per power of two, the
// HdrHistogram idea reduced to its essence): Record is a constant-time
// pair of atomic adds with no allocation, no lock, and no contention
// beyond the bucket cache line itself, so it is safe to call from the
// hottest query and write paths. Quantile readout (p50/p99/p999)
// operates on immutable Snapshot copies, never on the live buckets.
//
// Relative error is bounded by the sub-bucket width: at most 1/16
// (6.25%) of the value, which is ample for latency quantiles spanning
// nanoseconds to seconds.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBuckets is the number of linear sub-buckets per power of
	// two (the log-linear resolution).
	histSubBuckets = 16
	// histBuckets covers non-negative int64 values: buckets 0..15 are
	// exact, then 16 sub-buckets for each bit length 5..63.
	histBuckets = (63-4)*histSubBuckets + histSubBuckets
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	k := bits.Len64(u)                              // >= 5
	return (k-5)*histSubBuckets + int(u>>uint(k-5)) // u>>(k-5) is in [16, 32)
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	a, b := i/histSubBuckets, i%histSubBuckets
	return int64(histSubBuckets+b) << uint(a-1)
}

// bucketMid returns the representative (middle) value of bucket i,
// used for quantile readout.
func bucketMid(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	width := int64(1) << uint(i/histSubBuckets-1)
	return bucketLow(i) + width/2
}

// Histogram is a lock-free log-linear histogram over non-negative
// int64 values (typically nanoseconds, sometimes record counts). The
// zero value is ready to use. All methods are safe for concurrent use;
// Record never allocates.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	// zeros, when set, counts every observation, the zeros included,
	// while the recorder records only the non-zero values, each before
	// the counter's increment: Snapshot derives bucket 0 as the count
	// minus everything recorded, so a zero costs no write here.
	zeros *Counter
}

// Record adds one observation (negative values clamp to zero).
func (h *Histogram) Record(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// recordBucket counts an observation with weight n, without touching
// the sum — for callers that batch sums separately (the convergence
// layer drains its packed window sum via addSum) or record a sampled
// stream with compensating weight.
func (h *Histogram) recordBucket(v, n int64) { h.buckets[bucketOf(v)].Add(n) }

// addSum folds a batched sum contribution in (pair of recordBucket).
func (h *Histogram) addSum(v int64) {
	if v > 0 {
		h.sum.Add(v)
	}
}

// Snapshot copies the current bucket counts. The copy is not a
// point-in-time atomic cut across buckets (observations racing the
// copy may or may not be included), but every observation is counted
// in exactly one bucket. With a zeros counter, the counter is read
// first: every observation it counts has had its non-zero value
// recorded by then, so the derived bucket 0 never counts a non-zero
// value as zero (an observation racing the copy may be missing from
// it, as above).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	var all int64
	if h.zeros != nil {
		all = h.zeros.Load()
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	if h.zeros != nil {
		s.Counts[0] += max(0, all-s.Count())
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram's state, the unit
// of quantile readout.
type HistSnapshot struct {
	// Counts holds the per-bucket observation counts.
	Counts [histBuckets]int64
	// Sum is the sum of all recorded values.
	Sum int64
}

// Count returns the total number of observations.
func (s *HistSnapshot) Count() int64 {
	var n int64
	for i := range s.Counts {
		n += s.Counts[i]
	}
	return n
}

// Quantile returns the value at quantile q in [0, 1] (the bucket
// midpoint containing the rank), or 0 when the histogram is empty.
func (s *HistSnapshot) Quantile(q float64) int64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := range s.Counts {
		seen += s.Counts[i]
		if seen > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// QuantileDuration is Quantile for nanosecond histograms.
func (s *HistSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}
