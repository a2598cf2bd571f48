// Key-range access heatmap: a fixed-bucket sketch over the key domain.
//
// The Heatmap answers "where in the key space does the load land?" with
// the same overhead discipline as the rest of this package: recording a
// query's bounds or a write's key is a handful of uncontended atomic
// adds on fixed storage — no allocation, no lock, nil-safe through the
// Observer — so it can sit on the hottest read and write paths. The
// domain is divided into HeatBuckets equal-width buckets; a range query
// increments every bucket its predicate overlaps, a write increments
// the bucket holding its key. Because shards range-partition the same
// key domain, slicing the one sketch by a shard's bounds *is* that
// shard's heatmap (Slice), which is how the facade derives per-shard
// views without per-shard storage or rebuild-on-split bookkeeping.
//
// Resolution is deliberately coarse (64 buckets): the consumer is the
// rebalancer/controller asking "is the load skewed, and toward which
// shard?", not an exact histogram of keys.
package metrics

import "sync/atomic"

// HeatBuckets is the number of equal-width key-range buckets.
const HeatBuckets = 64

// Heatmap is a fixed-bucket access sketch over the key domain
// [lo, hi]. All methods are safe for concurrent use and nil-safe;
// recording never allocates.
type Heatmap struct {
	lo int64
	hi int64
	w  uint64 // per-bucket key width, >= 1
	// reads[i] counts range queries whose predicate overlapped
	// bucket i; writes[i] counts inserts/deletes keyed into it.
	reads  [HeatBuckets]atomic.Int64
	writes [HeatBuckets]atomic.Int64
}

// NewHeatmap builds a sketch over the inclusive key domain [lo, hi].
// Keys outside the domain clamp to the edge buckets.
func NewHeatmap(lo, hi int64) *Heatmap {
	if hi < lo {
		lo, hi = hi, lo
	}
	span := uint64(hi) - uint64(lo) // hi >= lo, so this cannot underflow
	return &Heatmap{lo: lo, hi: hi, w: span/HeatBuckets + 1}
}

// bucket maps a key to its bucket index, clamping out-of-domain keys.
func (h *Heatmap) bucket(v int64) int {
	if v < h.lo {
		return 0
	}
	u := (uint64(v) - uint64(h.lo)) / h.w
	if u >= HeatBuckets {
		return HeatBuckets - 1
	}
	return int(u)
}

// RecordRangeN records a range query with half-open bounds [lo, hi)
// and weight n: every bucket the predicate overlaps gains n reads. The
// sampled recording path counts every profileSample-th query with
// n = profileSample, keeping expected bucket counts unbiased.
func (h *Heatmap) RecordRangeN(lo, hi, n int64) {
	if h == nil {
		return
	}
	a := h.bucket(lo)
	b := a
	if hi > lo {
		b = h.bucket(hi - 1)
	}
	for i := a; i <= b; i++ {
		h.reads[i].Add(n)
	}
}

// RecordKey records one write (insert or delete) keyed at v.
func (h *Heatmap) RecordKey(v int64) {
	if h == nil {
		return
	}
	h.writes[h.bucket(v)].Add(1)
}

// Snapshot copies the current bucket counts (nil-safe: a nil Heatmap
// yields a zero snapshot).
func (h *Heatmap) Snapshot() HeatSnapshot {
	var s HeatSnapshot
	if h == nil {
		return s
	}
	s.Lo, s.Hi, s.BucketWidth = h.lo, h.hi, int64(h.w)
	for i := range h.reads {
		s.Reads[i] = h.reads[i].Load()
		s.Writes[i] = h.writes[i].Load()
	}
	return s
}

// HeatSnapshot is an immutable copy of a Heatmap's state.
type HeatSnapshot struct {
	// Lo and Hi bound the key domain the buckets divide (inclusive).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// BucketWidth is the key width of each bucket.
	BucketWidth int64 `json:"bucket_width"`
	// Reads and Writes are the per-bucket access counts, low keys
	// first.
	Reads  [HeatBuckets]int64 `json:"reads"`
	Writes [HeatBuckets]int64 `json:"writes"`
}

// Slice sums the read and write counts of every bucket overlapping the
// inclusive key range [lo, hi] — the per-shard view of the sketch,
// since shards range-partition the same domain.
func (s *HeatSnapshot) Slice(lo, hi int64) (reads, writes int64) {
	if s.BucketWidth <= 0 || hi < lo {
		return 0, 0
	}
	a := heatBucketOf(s, lo)
	b := heatBucketOf(s, hi)
	for i := a; i <= b; i++ {
		reads += s.Reads[i]
		writes += s.Writes[i]
	}
	return reads, writes
}

func heatBucketOf(s *HeatSnapshot, v int64) int {
	if v < s.Lo {
		return 0
	}
	u := (uint64(v) - uint64(s.Lo)) / uint64(s.BucketWidth)
	if u >= HeatBuckets {
		return HeatBuckets - 1
	}
	return int(u)
}
