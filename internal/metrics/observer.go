// Observer is the engine-facing recording surface: one per index,
// threaded by pointer into every layer (latch, crackindex, shard,
// ingest, wal, durable). Layers call its Record* methods; the
// exposition layer reads its Registry and Flight.
//
// Overhead contract, layer by layer:
//
//   - Every Record* method is nil-safe (a nil *Observer is a no-op),
//     so layers call unconditionally.
//   - The core histograms — query wait/crack/critical, write latency,
//     latch waits, structural durations, fsync, commit batch — are
//     ALWAYS recorded. Each costs two atomic adds on values the engine
//     has already computed; none introduces a clock read on a fast
//     path (latch waits are measured only on the slow path where the
//     goroutine actually blocked, structural work is milliseconds).
//     The three per-query histograms record only non-zero values and
//     derive their zero bucket from the query counter, so a query that
//     neither waited nor refined costs RecordQuery one atomic add.
//   - The extra work — end-to-end query timing (an added time.Now
//     pair) and flight-recorder query spans — runs only when tracing
//     is enabled, and then only for 1 in SampleEvery queries.
//   - Stall events (latch wait or writer park over the threshold) are
//     always captured in the flight recorder: stalls are rare, and the
//     whole point of a flight recorder is that it was on when the
//     anomaly happened.
package metrics

import (
	"sync/atomic"
	"time"
)

// Default observer tuning.
const (
	// defaultStallThreshold flags latch waits and writer parks longer
	// than this as stall events.
	defaultStallThreshold = time.Millisecond
	// flightEvents is the flight-recorder ring capacity.
	flightEvents = 4096
)

// ObserverOptions tunes an Observer. The zero value records the core
// histograms and stalls over defaultStallThreshold, and traces nothing.
type ObserverOptions struct {
	// Tracing enables per-query end-to-end timing and sampled flight
	// spans. The core histograms record regardless.
	Tracing bool
	// SampleEvery traces 1 in N queries end to end when tracing is
	// enabled (default 1: every query). Higher values cut tracing
	// overhead proportionally.
	SampleEvery int
	// StallThreshold classifies latch waits and writer parks as stall
	// events (default defaultStallThreshold).
	StallThreshold time.Duration
}

// Observer aggregates one index's instruments. Create with
// NewObserver; a nil Observer is valid and records nothing.
type Observer struct {
	reg    *Registry
	flight *Flight

	// Fixed at construction, before the observer is published.
	tracing     bool
	sampleEvery uint64
	stallNS     int64

	qctr atomic.Uint64 // sampling counter

	// Query path.
	queries       *Counter
	queryLatency  *Histogram // end-to-end, tracing only; its count is the sampled spans
	queryWait     *Histogram // summed latch wait per query
	queryCrack    *Histogram // summed crack/refine per query
	queryCritical *Histogram // fan-out critical path per query

	// Latch layer.
	latchWait   *Histogram
	latchStalls *Counter

	// Write path.
	writeLatency *Histogram // its count is the routed writes
	writerPark   *Histogram
	writerStalls *Counter

	// Structural operations.
	sealDur       *Histogram
	applyDur      *Histogram
	splitDur      *Histogram
	mergeDur      *Histogram
	checkpointDur *Histogram

	// Durability.
	fsyncDur    *Histogram
	commitBatch *Histogram

	// Semantic layer: key-range heatmap, convergence telemetry, and
	// the depth gauges the health watchdog reads (see convergence.go).
	// The per-query accumulators are deliberately adjacent inline
	// atomics, not registry counters, so one query's recordings land
	// on one cache line; the registry reads them through CounterFunc.
	// rout and win are packed pair-accumulators drained every window
	// close into the cold cumulative fields below them.
	heat         atomic.Pointer[Heatmap]
	rout         atomic.Int64 // packed: shard visits <<32 | covered hits
	win          atomic.Int64 // packed: rows-touched sum <<16 | query count
	winDone      atomic.Int64 // completed ConvWindow-sized windows
	routVisits   atomic.Int64 // drained visit total (cold)
	routCovered  atomic.Int64 // drained covered total (cold)
	queryTouched *Histogram
	series       [ConvSeriesLen]atomic.Int64 // stored as mean+1; 0 = empty slot

	walSinceBytes   *Gauge
	walSinceRecords *Gauge
	chainLenMax     *Gauge
	sealedUnapplied *Gauge
	recoverCkptNS   *Gauge
	recoverScanNS   *Gauge
	recoverReplayNS *Gauge
}

// NewObserver builds an observer with its registry and flight
// recorder.
func NewObserver(o ObserverOptions) *Observer {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	if o.StallThreshold <= 0 {
		o.StallThreshold = defaultStallThreshold
	}
	reg := NewRegistry()
	ob := &Observer{
		reg:         reg,
		flight:      NewFlight(flightEvents),
		tracing:     o.Tracing,
		sampleEvery: uint64(o.SampleEvery),
		stallNS:     int64(o.StallThreshold),

		queries:       reg.Counter("adaptix_queries_total", "Range queries answered."),
		queryLatency:  reg.Histogram("adaptix_query_latency_ns", "End-to-end query latency (tracing only)."),
		queryWait:     reg.Histogram("adaptix_query_wait_ns", "Per-query summed latch-wait time."),
		queryCrack:    reg.Histogram("adaptix_query_crack_ns", "Per-query summed crack/refine time."),
		queryCritical: reg.Histogram("adaptix_query_critical_ns", "Per-query fan-out critical path (slowest sub-query)."),

		latchWait:   reg.Histogram("adaptix_latch_wait_ns", "Blocked latch acquisitions, wait time."),
		latchStalls: reg.Counter("adaptix_latch_stalls_total", "Latch waits over the stall threshold."),

		writeLatency: reg.Histogram("adaptix_write_latency_ns", "Routed write latency (route + epoch append + log)."),
		writerPark:   reg.Histogram("adaptix_writer_park_ns", "Writer park time on sealed epochs."),
		writerStalls: reg.Counter("adaptix_writer_stalls_total", "Writer parks over the stall threshold."),

		sealDur:       reg.Histogram("adaptix_seal_ns", "Epoch seal duration."),
		applyDur:      reg.Histogram("adaptix_apply_ns", "Group-apply (seal merge + rebuild + publish) duration."),
		splitDur:      reg.Histogram("adaptix_split_ns", "Shard split duration."),
		mergeDur:      reg.Histogram("adaptix_merge_ns", "Shard merge duration."),
		checkpointDur: reg.Histogram("adaptix_checkpoint_ns", "Durable checkpoint duration."),

		fsyncDur:    reg.Histogram("adaptix_fsync_ns", "WAL fsync latency."),
		commitBatch: reg.Histogram("adaptix_group_commit_batch_records", "Logical records per group-commit fsync."),

		queryTouched: reg.Histogram("adaptix_query_touched_rows", "Rows physically touched (scanned or cracked) per query."),

		walSinceBytes:   reg.Gauge("adaptix_wal_bytes_since_checkpoint", "WAL bytes appended since the last checkpoint."),
		walSinceRecords: reg.Gauge("adaptix_wal_records_since_checkpoint", "WAL records appended since the last checkpoint."),
		chainLenMax:     reg.Gauge("adaptix_epoch_chain_len_max", "Longest per-shard epoch chain (open + sealed files)."),
		sealedUnapplied: reg.Gauge("adaptix_epoch_sealed_unapplied", "Sealed epoch files not yet group-applied, all shards."),
		recoverCkptNS:   reg.Gauge("adaptix_recovery_checkpoint_load_ns", "Recovery: checkpoint snapshot load time."),
		recoverScanNS:   reg.Gauge("adaptix_recovery_wal_scan_ns", "Recovery: WAL segment scan time."),
		recoverReplayNS: reg.Gauge("adaptix_recovery_crack_replay_ns", "Recovery: snapshot restore + logged data-tail replay time."),
	}
	for _, h := range []*Histogram{ob.queryWait, ob.queryCrack, ob.queryCritical} {
		h.zeros = ob.queries // RecordQuery skips zeros; Snapshot derives them
	}
	reg.CounterFunc("adaptix_shard_visits_total",
		"Per-query shard visits (covered + indexed).",
		func() int64 { v, _ := ob.Routing(); return v })
	reg.CounterFunc("adaptix_covered_shards_total",
		"Shard visits answered by the covered-aggregate fast path.",
		func() int64 { _, c := ob.Routing(); return c })
	return ob
}

// Registry returns the observer's instrument registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Flight returns the observer's flight recorder (nil-safe).
func (o *Observer) Flight() *Flight {
	if o == nil {
		return nil
	}
	return o.flight
}

// QueryStart opens a query span: zero when the observer is nil or
// tracing is off (the caller then skips the closing time.Since), the
// current time when this query is being traced.
func (o *Observer) QueryStart() time.Time {
	if o == nil || !o.tracing {
		return time.Time{}
	}
	n := o.qctr.Add(1)
	if every := o.sampleEvery; every > 1 && n%every != 0 {
		return time.Time{}
	}
	return time.Now()
}

// RecordQuery closes a query span. wait, crack, and critical are the
// per-query cost breakdown the engine already computed; start is
// QueryStart's return (zero when the query was not sampled, in which
// case only the core histograms record). A zero cost is not recorded:
// the histograms count it from the query counter, which is incremented
// after the non-zero costs are recorded (the order Histogram.Snapshot
// relies on).
func (o *Observer) RecordQuery(start time.Time, wait, crack, critical time.Duration) {
	if o == nil {
		return
	}
	if wait != 0 {
		o.queryWait.RecordDuration(wait)
	}
	if crack != 0 {
		o.queryCrack.RecordDuration(crack)
	}
	if critical != 0 {
		o.queryCritical.RecordDuration(critical)
	}
	o.queries.Inc()
	if start.IsZero() {
		return
	}
	total := time.Since(start)
	o.queryLatency.RecordDuration(total)
	o.flight.Record(EvQuery, -1, total, int64(wait), int64(crack))
}

// RecordLatchWait records one blocked latch acquisition (called only
// from the latch slow path). Waits over the stall threshold also land
// in the flight recorder.
func (o *Observer) RecordLatchWait(d time.Duration, reader bool) {
	if o == nil {
		return
	}
	o.latchWait.RecordDuration(d)
	if int64(d) >= o.stallNS {
		o.latchStalls.Inc()
		var r int64
		if reader {
			r = 1
		}
		o.flight.Record(EvLatchStall, -1, d, r, 0)
	}
}

// WriteStart opens a write span (always timed: one clock read per
// routed write, amortized against epoch append + WAL work).
func (o *Observer) WriteStart() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// RecordWrite closes a write span opened by WriteStart.
func (o *Observer) RecordWrite(start time.Time) {
	if o == nil || start.IsZero() {
		return
	}
	o.writeLatency.RecordDuration(time.Since(start))
}

// RecordWriterPark records time a writer spent parked on a sealed
// epoch. Parks over the stall threshold also land in the flight
// recorder.
func (o *Observer) RecordWriterPark(shard int32, d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.writerPark.RecordDuration(d)
	if int64(d) >= o.stallNS {
		o.writerStalls.Inc()
		o.flight.Record(EvWriterStall, shard, d, 0, 0)
	}
}

// RecordStructural records a structural operation's duration in the
// matching histogram and the flight recorder. rows carries the row
// count the operation touched (sealed or applied), 0 when not
// applicable.
func (o *Observer) RecordStructural(kind EventKind, shard int32, d time.Duration, rows int64) {
	if o == nil {
		return
	}
	switch kind {
	case EvSeal:
		o.sealDur.RecordDuration(d)
	case EvApply:
		o.applyDur.RecordDuration(d)
	case EvSplit:
		o.splitDur.RecordDuration(d)
	case EvMerge:
		o.mergeDur.RecordDuration(d)
	case EvCheckpoint:
		o.checkpointDur.RecordDuration(d)
	default:
		return
	}
	o.flight.Record(kind, shard, d, rows, 0)
}

// RecordFsync records one WAL fsync's latency.
func (o *Observer) RecordFsync(d time.Duration) {
	if o == nil {
		return
	}
	o.fsyncDur.RecordDuration(d)
}

// RecordCommitBatch records the number of logical records covered by
// one group-commit fsync.
func (o *Observer) RecordCommitBatch(n int64) {
	if o == nil {
		return
	}
	o.commitBatch.Record(n)
}

// ObsSummary is a point-in-time quantile readout of an observer's core
// histograms — the numbers adaptix.Stats surfaces (Figure 15's
// wait-vs-refine decomposition and the writer-stall tail as live
// quantiles instead of offline experiment output).
type ObsSummary struct {
	// Queries, Writes, and SampledSpans are lifetime counts (Writes and
	// SampledSpans are the write- and query-latency histograms' counts).
	Queries, Writes, SampledSpans int64
	// LatchStalls and WriterStalls count waits over the stall threshold.
	LatchStalls, WriterStalls int64
	// QueryLatencyP50/P99/P999 is end-to-end query latency; populated
	// only while tracing is enabled (the core histograms below record
	// always).
	QueryLatencyP50, QueryLatencyP99, QueryLatencyP999 time.Duration
	// QueryWaitP99 and QueryCrackP99 split per-query cost into latch
	// wait vs index refinement (Figure 15's two components).
	QueryWaitP99, QueryCrackP99 time.Duration
	// CriticalPathP50/P99/P999 is the fan-out critical path: the
	// slowest sub-query per query.
	CriticalPathP50, CriticalPathP99, CriticalPathP999 time.Duration
	// LatchWaitP99 is the per-acquisition (not per-query) blocked-wait
	// quantile.
	LatchWaitP99 time.Duration
	// WriteLatencyP50/P99 is routed-write latency.
	WriteLatencyP50, WriteLatencyP99 time.Duration
	// WriterStallP50/P99/P999 is the writer-park tail: time writers
	// spent parked behind structural rebuilds.
	WriterStallP50, WriterStallP99, WriterStallP999 time.Duration
	// FsyncP99 is WAL fsync latency (durable stores only).
	FsyncP99 time.Duration
}

// Summary computes the quantile readout from the live histograms
// (nil-safe: a nil observer yields a zero summary).
func (o *Observer) Summary() ObsSummary {
	if o == nil {
		return ObsSummary{}
	}
	ql := o.queryLatency.Snapshot()
	qw := o.queryWait.Snapshot()
	qk := o.queryCrack.Snapshot()
	qc := o.queryCritical.Snapshot()
	lw := o.latchWait.Snapshot()
	wp := o.writerPark.Snapshot()
	wl := o.writeLatency.Snapshot()
	fs := o.fsyncDur.Snapshot()
	return ObsSummary{
		Queries:      o.queries.Load(),
		Writes:       wl.Count(),
		SampledSpans: ql.Count(),
		LatchStalls:  o.latchStalls.Load(),
		WriterStalls: o.writerStalls.Load(),

		QueryLatencyP50:  ql.QuantileDuration(0.50),
		QueryLatencyP99:  ql.QuantileDuration(0.99),
		QueryLatencyP999: ql.QuantileDuration(0.999),

		QueryWaitP99:  qw.QuantileDuration(0.99),
		QueryCrackP99: qk.QuantileDuration(0.99),

		CriticalPathP50:  qc.QuantileDuration(0.50),
		CriticalPathP99:  qc.QuantileDuration(0.99),
		CriticalPathP999: qc.QuantileDuration(0.999),

		LatchWaitP99: lw.QuantileDuration(0.99),

		WriteLatencyP50: wl.QuantileDuration(0.50),
		WriteLatencyP99: wl.QuantileDuration(0.99),

		WriterStallP50:  wp.QuantileDuration(0.50),
		WriterStallP99:  wp.QuantileDuration(0.99),
		WriterStallP999: wp.QuantileDuration(0.999),

		FsyncP99: fs.QuantileDuration(0.99),
	}
}
