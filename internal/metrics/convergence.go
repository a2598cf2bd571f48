// Semantic observability: the Observer methods that watch the engine
// *as an adaptive index* rather than as a generic server — where the
// load lands in the key space (heatmap), how much data each query
// still has to touch (the paper's cost-decay curve, live), how often
// the covered-aggregate fast path answers without touching an index,
// and the depth gauges (epoch chains, WAL-since-checkpoint) the health
// watchdog evaluates.
//
// Everything here keeps the package's overhead contract: nil-safe,
// allocation-free, atomic adds on pre-registered instruments.
package metrics

import "time"

const (
	// ConvWindow is the number of queries per decay-series sample: the
	// mean rows-touched of each consecutive window of ConvWindow
	// queries becomes one series point.
	ConvWindow = 256
	// ConvSeriesLen is the number of retained decay-series samples.
	ConvSeriesLen = 64
)

// SetKeyDomain installs the key-range heatmap over the inclusive
// domain [lo, hi]. The first caller wins: the facade sets it once the
// column bounds are known; recordings before that are dropped.
func (o *Observer) SetKeyDomain(lo, hi int64) {
	if o == nil {
		return
	}
	o.heat.CompareAndSwap(nil, NewHeatmap(lo, hi))
}

// RecordWriteKey marks a routed insert/delete key in the heatmap.
func (o *Observer) RecordWriteKey(v int64) {
	if o == nil {
		return
	}
	o.heat.Load().RecordKey(v)
}

// Heat returns a snapshot of the key-range heatmap (zero when no
// domain was set).
func (o *Observer) Heat() HeatSnapshot {
	if o == nil {
		return HeatSnapshot{}
	}
	return o.heat.Load().Snapshot()
}

// RecordQueryProfile records one completed query's semantic profile:
// the predicate's heatmap footprint, the shard-routing outcome
// (visited shards overlapped the predicate, covered of them were
// answered by the covered-aggregate fast path), and the rows
// physically touched.
//
// This sits on every query, and atomic read-modify-writes are full
// fences that serialize rather than pipeline, so the fast path is
// exactly ONE atomic add: the packed window word, which carries the
// touched sum and query count the convergence series needs exactly.
// The wider profile — histogram bucket, heatmap range, routing
// counters — is recorded by every profileSample-th query with weight
// profileSample, which keeps every expected count unbiased while
// amortizing those adds to a fraction of a fence per query. The
// profile is a telemetry sketch, not an audit log; only the series
// means and the lifetime sums are exact.
func (o *Observer) RecordQueryProfile(lo, hi, visited, covered, touched int64) {
	if o == nil {
		return
	}
	n := touched
	if n < 0 {
		n = 0
	} else if n > touchedCap {
		n = touchedCap
	}
	v := o.win.Add(n<<winShift | 1)
	if v&winMask == ConvWindow {
		o.closeWindow()
	} else if v&(profileSample-1) != 0 {
		return
	}
	o.queryTouched.recordBucket(touched, profileSample)
	o.heat.Load().RecordRangeN(lo, hi, profileSample)
	o.rout.Add(visited<<routShift | covered)
}

// winShift packs the running rows-touched sum and the window's query
// count into one atomic word: sum in the high bits, count in the low
// 16. One atomic add maintains both; the closer of a window (the add
// that brings the count to ConvWindow) swaps the word out and
// publishes the mean. Adds racing the swap fold into whichever window
// captures them — the series is a telemetry sketch, not an audit log.
// routShift packs sampled per-query shard visits and covered hits the
// same way (visits high, covered low 32); the window close drains the
// packed words into the cold cumulative fields, so a lifetime readout
// is always cold-total + live-packed with no per-query cost.
const (
	winShift = 16
	winMask  = 1<<winShift - 1
	// touchedCap bounds one sample so ConvWindow packed samples cannot
	// overflow the sum field (47 bits of headroom above the count).
	touchedCap = 1 << 38
	routShift  = 32
	routMask   = 1<<routShift - 1
	// profileSample is the sampling stride of the wide query profile:
	// RecordQueryProfile records the histogram/heatmap/routing profile
	// on every profileSample-th query, weighted by profileSample. Must
	// be a power of two dividing ConvWindow.
	profileSample = 8
)

// closeWindow runs once per ConvWindow queries: it swaps out the
// packed accumulators, publishes the window's mean rows-touched into
// the decay series, and folds the deferred bookkeeping (histogram sum,
// lifetime routing totals, with the sampling weight applied) into the
// cold fields.
func (o *Observer) closeWindow() {
	w := o.win.Swap(0)
	sum, cnt := w>>winShift, w&winMask
	o.queryTouched.addSum(sum)
	r := o.rout.Swap(0)
	o.routVisits.Add(profileSample * (r >> routShift))
	o.routCovered.Add(profileSample * (r & routMask))
	if cnt == 0 {
		return
	}
	// Stored as mean+1 so an untouched slot (0) is distinguishable.
	o.series[o.winDone.Load()%ConvSeriesLen].Store(sum/cnt + 1)
	o.winDone.Add(1)
}

// ConvergenceSeries returns the mean rows-touched of recent
// ConvWindow-query windows, oldest first (at most ConvSeriesLen
// points). A converging index shows a decaying series; a flat,
// high series is the stagnation signature the watchdog looks for.
func (o *Observer) ConvergenceSeries() []int64 {
	if o == nil {
		return nil
	}
	windows := o.winDone.Load()
	n := windows
	if n > ConvSeriesLen {
		n = ConvSeriesLen
	}
	out := make([]int64, 0, n)
	for i := windows - n; i < windows; i++ {
		v := o.series[i%ConvSeriesLen].Load()
		if v > 0 {
			out = append(out, v-1)
		}
	}
	return out
}

// TouchedSnapshot returns the rows-touched histogram snapshot. The
// bucket counts are exact; the sum adds the still-open window's
// packed contribution on top of the drained histogram sum.
func (o *Observer) TouchedSnapshot() HistSnapshot {
	if o == nil {
		return HistSnapshot{}
	}
	s := o.queryTouched.Snapshot()
	s.Sum += o.win.Load() >> winShift
	return s
}

// Routing returns the lifetime shard-visit and covered-fast-path
// counts: the drained cold totals plus the still-packed live window
// (scaled by the sampling weight): sampled estimates.
func (o *Observer) Routing() (visited, covered int64) {
	if o == nil {
		return 0, 0
	}
	r := o.rout.Load()
	return o.routVisits.Load() + profileSample*(r>>routShift),
		o.routCovered.Load() + profileSample*(r&routMask)
}

// AddWALSince accumulates WAL append volume into the since-checkpoint
// gauges (called by the WAL sink on every framed write).
func (o *Observer) AddWALSince(bytes, records int64) {
	if o == nil {
		return
	}
	o.walSinceBytes.Add(bytes)
	o.walSinceRecords.Add(records)
}

// ResetWALSince zeroes the since-checkpoint gauges (called when a
// checkpoint durably lands).
func (o *Observer) ResetWALSince() {
	if o == nil {
		return
	}
	o.walSinceBytes.Set(0)
	o.walSinceRecords.Set(0)
}

// WALSince returns the WAL bytes and records appended since the last
// checkpoint.
func (o *Observer) WALSince() (bytes, records int64) {
	if o == nil {
		return 0, 0
	}
	return o.walSinceBytes.Load(), o.walSinceRecords.Load()
}

// SetEpochDepth publishes the epoch-machinery depth gauges: the
// longest per-shard chain and the total sealed-but-unapplied epoch
// files (sampled by the health watchdog from shard stats).
func (o *Observer) SetEpochDepth(maxChain, sealedUnapplied int64) {
	if o == nil {
		return
	}
	o.chainLenMax.Set(maxChain)
	o.sealedUnapplied.Set(sealedUnapplied)
}

// RecordRecovery publishes the recovery-time breakdown measured by
// durable Open: checkpoint snapshot load, WAL segment scan, and the
// column's restore from the snapshot plus the logged data-tail replay.
func (o *Observer) RecordRecovery(ckptLoad, walScan, replay time.Duration) {
	if o == nil {
		return
	}
	o.recoverCkptNS.Set(int64(ckptLoad))
	o.recoverScanNS.Set(int64(walScan))
	o.recoverReplayNS.Set(int64(replay))
}

// RecordHealth records a health-rule transition in the flight
// recorder (rule = ordinal in the watchdog's rule list; degraded
// reports the new state).
func (o *Observer) RecordHealth(rule int64, degraded bool) {
	if o == nil {
		return
	}
	var b int64
	if degraded {
		b = 1
	}
	o.flight.Record(EvHealth, -1, 0, rule, b)
}
