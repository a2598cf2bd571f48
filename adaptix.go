// Package adaptix is a from-scratch Go implementation of adaptive
// indexing with concurrency control, reproducing
//
//	Graefe, Halim, Idreos, Kuno, Manegold:
//	"Concurrency Control for Adaptive Indexing", PVLDB 5(7), 2012.
//
// Adaptive indexing creates and refines indexes incrementally as a
// side effect of query processing: the more often a key range is
// queried, the more its physical representation is optimized. The
// package provides the adaptive-indexing methods of the paper —
// database cracking, adaptive merging over a partitioned B-tree, the
// hybrid crack-sort — plus the two non-adaptive baselines (full sort
// and plain scans), all behind ONE handle with one context-aware query
// and write surface.
//
// # Quick start
//
//	ix, err := adaptix.New(values)                   // database cracking
//	defer ix.Close()
//	res, err := ix.Count(ctx, 100, 200)              // count of values in [100, 200)
//	res, err  = ix.Sum(ctx, 100, 200)                // refines the index as a side effect
//	err  = ix.Insert(ctx, 150)                       // routed write, visible immediately
//
// The method, sharding, write path, and durability are all selected by
// functional options:
//
//	ix, _ := adaptix.New(values,
//	    adaptix.WithMethod(adaptix.AMerge),          // or Hybrid, Sort, Scan, Crack
//	    adaptix.WithShards(8),                       // range-partitioned fan-out execution
//	)
//
// A durable, crash-recoverable index is the same handle opened on a
// directory:
//
//	ix, _ := adaptix.Open(dir, adaptix.WithValues(values), adaptix.WithLogWrites())
//
// Every query takes a context.Context: cancellation before any work
// returns ctx.Err() with no refinement side effects, a deadline
// expiring while the query is parked on a piece latch unparks it
// promptly, and context.Background() follows an uncancellable fast
// path with no measurable overhead. Writes are context-aware the same
// way (a writer parked behind a shard split unparks on cancellation).
//
// Whatever the method, the handle is writable: routed inserts and
// deletes land in per-shard epoch chains (versioned differential
// files), group-apply merges fold them into the method's physical
// structure in the background without parking writers, and an online
// rebalancer splits and merges shards under skew. The internal
// packages remain the source of truth for the documentation of each
// subsystem (see docs/ARCHITECTURE.md for the layer map).
package adaptix

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"adaptix/internal/amerge"
	"adaptix/internal/baseline"
	"adaptix/internal/durable"
	"adaptix/internal/engine"
	"adaptix/internal/health"
	"adaptix/internal/hybrid"
	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/obs"
	"adaptix/internal/serve"
	"adaptix/internal/shard"
	"adaptix/internal/wcapture"
)

// Index is the unified handle over one adaptively indexed column: one
// query surface (Count, Sum), one write surface (Insert, Delete,
// Apply), one observability surface (Stats) — for every method, every
// shard count, and both the in-memory and the durable lifecycles. All
// methods are safe for concurrent use.
type Index struct {
	method Method
	col    *shard.Column
	ing    *ingest.Coordinator
	dur    *durable.Column    // nil for in-memory indexes
	obs    *metrics.Observer  // always non-nil
	wd     *health.Watchdog   // always non-nil; background loop under WithHealth
	cap    *wcapture.Recorder // always non-nil; recording under WithWorkloadCapture

	srv atomic.Pointer[serve.Server] // live serving front (nil unless Serve is up)

	closeOnce sync.Once
	closeErr  error
}

// New builds an in-memory adaptive index over values. The default
// configuration is database cracking with piece latches, one shard per
// CPU, and background group-apply maintenance; see the Option
// constructors for everything that can be changed. The returned Index
// must be Closed to stop the background maintenance worker.
func New(values []int64, opts ...Option) (*Index, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.durableOnly != "" {
		return nil, fmt.Errorf("adaptix: %s requires Open (durability options have no effect on an in-memory index)", cfg.durableOnly)
	}
	if cfg.values != nil {
		return nil, errors.New("adaptix: WithValues is for Open; pass the values to New directly")
	}
	ob := cfg.newObserver()
	cap, err := cfg.newRecorder(ob)
	if err != nil {
		return nil, err
	}
	col := shard.New(values, cfg.shardOptions(ob, cap))
	if err := col.CheckKeys(); err != nil {
		cap.Close()
		return nil, fmt.Errorf("adaptix: %w", err)
	}
	iopts := cfg.ingest
	iopts.Obs = ob
	ing := ingest.New(col, iopts)
	ing.Start()
	return newIndex(cfg, col, ing, nil, ob, cap), nil
}

// Open opens (or creates) a durable adaptive index in dir: a
// crash-recoverable store whose refinement knowledge — shard cuts and
// every shard's pieces — survives process death. A checkpoint is one
// snapshot file holding the column's arrays in piece order with their
// tables of contents; a file-backed WAL holds what happened since. A
// fresh store is created over WithValues; an existing store adopts its
// snapshot as is and replays the logged writes past it (ignoring
// WithValues). Close takes a final checkpoint, so a clean shutdown
// loses nothing; see WithLogWrites / WithSyncEvery / WithSyncInterval
// for the crash loss window of the data tail.
func Open(dir string, opts ...Option) (*Index, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	ob := cfg.newObserver()
	cap, err := cfg.newRecorder(ob)
	if err != nil {
		return nil, err
	}
	dopts := durable.Options{
		Values:          cfg.values,
		Shard:           cfg.shardOptions(ob, cap),
		Ingest:          cfg.ingest,
		SegmentBytes:    cfg.segmentBytes,
		CheckpointEvery: cfg.checkpointEvery,
		LogWrites:       cfg.logWrites,
		SyncEvery:       cfg.syncEvery,
		SyncInterval:    cfg.syncInterval,
		NoSync:          cfg.noSync,
	}
	dur, err := durable.Open(dir, dopts)
	if err != nil {
		cap.Close()
		return nil, err
	}
	return newIndex(cfg, dur.Column(), dur.Ingestor(), dur, ob, cap), nil
}

func newIndex(cfg *config, col *shard.Column, ing *ingest.Coordinator, dur *durable.Column, ob *metrics.Observer, cap *wcapture.Recorder) *Index {
	// Size the key-range heatmap and the workload characterizer to the
	// initial key domain (first-wins: later inserts outside it clamp to
	// the edge buckets). An empty index never installs a sketch;
	// recordings stay free no-ops.
	if lo, hi, ok := col.KeyDomain(); ok {
		ob.SetKeyDomain(lo, hi)
		cap.SetDomain(lo, hi)
	}
	cap.SetMethod(uint8(cfg.method))
	ix := &Index{
		method: cfg.method,
		col:    col,
		ing:    ing,
		dur:    dur,
		obs:    ob,
		cap:    cap,
	}
	// The watchdog's epoch-depth sampler reads the live shard snapshot:
	// the longest per-shard chain and the total sealed-but-unapplied
	// epoch files across shards.
	ix.wd = health.New(cfg.healthOptions(), ob, func() (int64, int64) {
		var maxChain, sealed int64
		for _, st := range col.Snapshot() {
			if int64(st.Epochs) > maxChain {
				maxChain = int64(st.Epochs)
			}
			sealed += int64(st.SealedEpochs)
		}
		return maxChain, sealed
	})
	ix.wd.Start()
	return ix
}

// Method returns the adaptive-indexing method the handle was built
// with.
func (ix *Index) Method() Method { return ix.method }

// Count evaluates Q1 — select count(*) where lo <= A < hi — refining
// the index as a side effect. Cancellation before any work returns
// ctx.Err() with no side effects; a deadline expiring while the query
// is parked on a latch unparks it promptly; a query returning a
// non-nil error returns no answer.
func (ix *Index) Count(ctx context.Context, lo, hi int64) (Result, error) {
	return result(ix.col.Count(ctx, lo, hi))
}

// Sum evaluates Q2 — select sum(A) where lo <= A < hi — with the same
// refinement side effects and context semantics as Count.
func (ix *Index) Sum(ctx context.Context, lo, hi int64) (Result, error) {
	return result(ix.col.Sum(ctx, lo, hi))
}

// Result is one query's outcome: the count or sum, and the query's cost
// record as the sharded column merged it (wait vs refine time, fan-out
// critical path, epoch depth, conflicts, rows touched).
type Result struct {
	// Value is the count or sum.
	Value int64
	OpStats
}

// result builds the Result of one query; a query that failed returns no
// answer.
func result(v int64, st OpStats, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v, OpStats: st}, nil
}

// Insert adds one logical instance of v. Keys run from math.MinInt64 to
// math.MaxInt64-1: math.MaxInt64 is the sentinel no half-open range
// [lo, hi) can include, so Insert refuses it with an error, and New and
// Open refuse initial values that hold it. The write lands in the owning
// shard's open differential epoch and is visible to queries
// immediately; it never parks behind a group-apply merge (writers roll
// over to the next epoch). A context cancelled before the write routes
// — or while the writer is parked behind a shard split or merge —
// returns ctx.Err() with the write not applied.
func (ix *Index) Insert(ctx context.Context, v int64) error {
	return ix.ing.Insert(ctx, v)
}

// Delete removes one logical instance of v, reporting whether one
// existed. Deletion is differential: it cancels a pending insert of v
// in its shard's open epoch if there is one, else an anti-matter record
// cancels one instance at query time.
func (ix *Index) Delete(ctx context.Context, v int64) (bool, error) {
	return ix.ing.DeleteValue(ctx, v)
}

// Apply routes a batch of write operations and returns the number of
// deletes that found an instance. On a context error the batch stops
// where it stands: ops already routed stay applied, the rest are not.
func (ix *Index) Apply(ctx context.Context, batch []Op) (int, error) {
	return ix.ing.Apply(ctx, batch)
}

// Stats returns an observability snapshot: per-shard refinement state,
// the write path's activity counters, and the latency quantiles of the
// always-on histograms. The per-shard views (Rows, Bounds, Shards) are
// read against one shard-map epoch, so they are mutually consistent
// even while the rebalancer is splitting or merging shards.
func (ix *Index) Stats() Stats {
	sv := ix.col.StatView()
	return Stats{
		Method:      ix.method,
		Rows:        sv.Rows,
		Bounds:      sv.Bounds,
		Shards:      sv.Shards,
		Ingest:      ix.ing.Stats(),
		Obs:         ix.obs.Summary(),
		Convergence: ix.convergence(),
		Workload:    ix.cap.Signature(),
	}
}

// convergence assembles the index-wide convergence readout from the
// observer's always-on instruments.
func (ix *Index) convergence() ConvergenceStats {
	ts := ix.obs.TouchedSnapshot()
	visited, covered := ix.obs.Routing()
	cs := ConvergenceStats{
		Series:     ix.obs.ConvergenceSeries(),
		TouchedP50: ts.Quantile(0.50),
		TouchedP99: ts.Quantile(0.99),
		Queries:    ts.Count(),
		Visits:     visited,
		Covered:    covered,
	}
	if visited > 0 {
		cs.CoveredFrac = float64(covered) / float64(visited)
	}
	return cs
}

// Health evaluates the watchdog's full rule catalog now and returns
// the report — the same document the endpoint's /health route serves
// (there with readiness semantics: HTTP 503 while any rule is
// degraded). Evaluation is cheap; under WithHealth a background loop
// additionally evaluates every HealthOptions.Interval.
func (ix *Index) Health() HealthReport { return ix.wd.Eval() }

// Observe returns the index's observability endpoint: an http.Handler
// serving Prometheus text exposition at /metrics, expvar JSON at
// /debug/vars, the standard pprof profiles under /debug/pprof/, the
// flight-recorder dump at /flight, a machine-readable live snapshot
// at /snapshot (what cmd/adaptixstat scrapes), and the watchdog
// report at /health (HTTP 200 while every rule passes, 503 once any
// rule degrades — usable directly as a readiness probe). Mount it
// wherever suits the process:
//
//	go http.ListenAndServe("localhost:6060", ix.Observe())
func (ix *Index) Observe() http.Handler {
	return obs.NewHandler(ix.obs,
		func() any { return ix.ObsSnapshot() },
		func() (any, bool) {
			r := ix.wd.Eval()
			return r, r.OK()
		},
		func() any { return ix.cap.Signature() })
}

// FlightDump returns the flight recorder's contents, oldest first: the
// most recent sampled query spans and every stall event (latch waits
// and writer parks over the stall threshold) plus structural
// operations. The recorder is a fixed-size ring and recording is
// wait-free, so dumping is safe at any time, including from a signal
// handler or after a test failure.
func (ix *Index) FlightDump() []FlightEvent { return ix.obs.Flight().Dump() }

// ObsSnapshot returns the live machine-readable snapshot served at the
// endpoint's /snapshot route.
func (ix *Index) ObsSnapshot() ObsSnapshot {
	st := ix.Stats()
	snap := ObsSnapshot{
		Method:      ix.method.String(),
		Rows:        st.Rows,
		Shards:      len(st.Shards),
		Ingest:      st.Ingest,
		Obs:         st.Obs,
		Convergence: st.Convergence,
		Workload:    st.Workload,
		Heatmap:     ix.obs.Heat(),
		ShardStats:  st.Shards,
	}
	if srv := ix.srv.Load(); srv != nil {
		ss := srv.Stats()
		snap.Serve = &ss
	}
	return snap
}

// ObsSnapshot is the JSON document served at the observability
// endpoint's /snapshot route and consumed by cmd/adaptixstat and
// cmd/crackviz.
type ObsSnapshot struct {
	// Method is the handle's adaptive-indexing method name.
	Method string `json:"method"`
	// Rows is the logical row count.
	Rows int `json:"rows"`
	// Shards is the current number of range partitions.
	Shards int `json:"shards"`
	// Ingest counts the write path's routed writes and structural
	// operations.
	Ingest IngestStats `json:"ingest"`
	// Obs is the quantile readout of the always-on histograms
	// (durations in nanoseconds).
	Obs ObsStats `json:"obs"`
	// Convergence is the index-wide convergence readout: the
	// bytes-touched decay series, rows-touched quantiles, and the
	// covered-aggregate hit rate.
	Convergence ConvergenceStats `json:"convergence"`
	// Workload is the live workload signature from the capture
	// recorder (the zero value unless WithWorkloadCapture armed it).
	Workload WorkloadStats `json:"workload"`
	// Heatmap is the key-range access sketch (zero-valued until the
	// key domain is known, i.e. for an index created empty).
	Heatmap HeatSnapshot `json:"heatmap"`
	// ShardStats is the per-shard refinement breakdown, in value order
	// — piece counts, piece-size profile, epoch-chain depth.
	ShardStats []ShardStat `json:"shard_stats"`
	// Serve is the serving front's readout, present only while a
	// network server (Index.Serve) is up.
	Serve *ServeStats `json:"serve,omitempty"`
}

// ConvergenceStats is the index-wide convergence readout (Stats and
// the /snapshot document): how fast queries stop touching unrefined
// data. A converging index shows Series decaying and CoveredFrac
// rising; a stagnating one (the watchdog's convergence-stagnation
// rule) shows Series flat while TouchedP50 stays high — which no read
// workload should produce on a Crack index, a sequential sweep
// included.
type ConvergenceStats struct {
	// Series is the mean rows touched per query, one point per window
	// of queries (oldest first, bounded ring — see the watchdog's
	// convergence rule for how stagnation is detected over it).
	Series []int64 `json:"series"`
	// TouchedP50 and TouchedP99 are rows-touched-per-query quantiles
	// over the whole run.
	TouchedP50 int64 `json:"touched_p50"`
	TouchedP99 int64 `json:"touched_p99"`
	// Queries is the number of queries the touched histogram observed.
	Queries int64 `json:"queries"`
	// Visits is the total number of shards the router selected; Covered
	// of those were answered from precomputed per-shard aggregates
	// without touching the shard's index.
	Visits  int64 `json:"visits"`
	Covered int64 `json:"covered"`
	// CoveredFrac is Covered/Visits (0 before any query).
	CoveredFrac float64 `json:"covered_frac"`
}

// Rows returns the number of logical rows currently in the index.
func (ix *Index) Rows() int { return ix.col.Rows() }

// NumShards returns the current number of range partitions (it changes
// over time under rebalancing).
func (ix *Index) NumShards() int { return ix.col.NumShards() }

// Validate checks every structural invariant of the index; it must be
// called while no queries or writes are in flight.
func (ix *Index) Validate() error { return ix.col.Validate() }

// CrackBoundaries returns every shard's current crack boundary values
// in shard order (nil for shards of non-Crack methods): the complete
// refinement knowledge the workload has earned. A durable checkpoint
// persists every one of them, with its position and prefix sum.
func (ix *Index) CrackBoundaries() [][]int64 { return ix.col.CrackBoundaries() }

// Checkpoint forces a durability checkpoint now (durable indexes
// only): the snapshot of every shard's pieces, then log-prefix
// truncation.
// It reports whether a checkpoint was written; an in-memory index
// always reports false.
func (ix *Index) Checkpoint() bool {
	if ix.dur == nil {
		return false
	}
	return ix.dur.Checkpoint()
}

// Recovered reports whether Open found an existing store in its
// directory (false for in-memory indexes and freshly created stores).
func (ix *Index) Recovered() bool { return ix.dur != nil && ix.dur.Recovered() }

// RecoveryStats returns the wall-clock breakdown of the Open that
// produced this index — checkpoint-snapshot load, structural-WAL scan,
// and column rebuild (adopting the snapshot's pieces plus replaying the
// logged data tail).
// All zeros for in-memory indexes. The same three durations are
// published as observer gauges (adaptix_recovery_*_ns).
func (ix *Index) RecoveryStats() RecoveryBreakdown {
	if ix.dur == nil {
		return RecoveryBreakdown{}
	}
	return ix.dur.Recovery()
}

// Maintain runs one synchronous maintenance pass (group-applies and
// rebalancing) and returns the number of structural operations
// performed. Background maintenance runs anyway; Maintain is for tests
// and benchmarks that need a deterministic quiesce point.
func (ix *Index) Maintain() int { return ix.ing.Maintain() }

// Close stops background maintenance and, for durable indexes, takes a
// final checkpoint and closes the log. Idempotent and safe for
// concurrent use; later calls return the first call's error.
func (ix *Index) Close() error {
	ix.closeOnce.Do(func() {
		ix.wd.Stop()
		if ix.dur != nil {
			ix.closeErr = ix.dur.Close()
		} else {
			ix.ing.Close()
		}
		// Stop capture last so writes flushed by Close are still
		// recorded, then drain the trace sink.
		if err := ix.cap.Close(); err != nil && ix.closeErr == nil {
			ix.closeErr = err
		}
	})
	return ix.closeErr
}

// Stats is the Index observability snapshot. Rows, Bounds, and Shards
// are taken against one shard-map epoch and are mutually consistent.
type Stats struct {
	// Method is the handle's adaptive-indexing method.
	Method Method
	// Rows is the logical row count (insertions minus matched
	// deletions) summed over the same shard snapshots listed in Shards.
	Rows int
	// Bounds holds the shard-map cut values: shard i owns
	// [Bounds[i-1], Bounds[i]), with open first and last ranges.
	Bounds []int64
	// Shards holds one refinement-state snapshot per shard, in value
	// order.
	Shards []ShardStat
	// Ingest counts the write path's routed writes and structural
	// operations.
	Ingest IngestStats
	// Obs is the quantile readout of the always-on latency histograms:
	// writer-stall and fan-out critical-path p99s, latch-wait p99, the
	// Figure 15 wait-vs-crack split, and the stall counters. End-to-end
	// query latency quantiles are populated only under
	// WithObservability (tracing).
	Obs ObsStats
	// Convergence is the index-wide convergence readout: the
	// rows-touched decay series, touched quantiles, and the
	// covered-aggregate hit rate.
	Convergence ConvergenceStats
	// Workload is the live workload signature (read/write mix,
	// selectivity, locality, sequentiality) the capture recorder has
	// characterized — the zero value unless WithWorkloadCapture armed
	// it.
	Workload WorkloadStats
}

// newSource builds the per-shard index factory for a method (nil for
// Crack: the sharded column's native cracked shards).
func (c *config) newSource() func(values []int64) engine.AggregateSource {
	switch c.method {
	case AMerge:
		mo := c.merge
		return func(values []int64) engine.AggregateSource {
			return amerge.New(values, mo)
		}
	case Hybrid:
		ho := c.hybrid
		return func(values []int64) engine.AggregateSource {
			return hybrid.New(values, ho)
		}
	case Sort:
		return func(values []int64) engine.AggregateSource {
			return baseline.NewFullSort(values)
		}
	case Scan:
		return func(values []int64) engine.AggregateSource {
			return baseline.NewScan(values)
		}
	default:
		return nil
	}
}
