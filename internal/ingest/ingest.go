// Package ingest is the concurrent write-path subsystem for the
// sharded adaptive index (internal/shard). It turns the sharded column
// into a live, self-balancing structure under a mixed read/write
// workload, following the paper's update architecture (§4.2): logical
// updates land in per-shard epoch chains — versioned differential
// files (internal/epoch) — and all *structural* work — merging sealed
// epochs into the cracker arrays, splitting and merging shards — runs
// in the background on re-creatable structure, logging nothing: the
// paper separates index structure from index contents, and only the
// contents must survive a crash.
//
// Three cooperating pieces:
//
//   - The router (Insert / DeleteValue / Apply) forwards writes to the
//     owning shard's open epoch through shard.Column and counts write
//     traffic so maintenance runs at the right cadence. With a log
//     (Options.Log) each write also leaves one compact, data-only
//     record — value, op, epoch — closing the
//     lose-writes-since-last-checkpoint window.
//   - The group-apply worker batches pending updates per shard: once a
//     shard's chain exceeds Options.ApplyThreshold, the current epoch
//     is sealed (writers roll over to the next epoch without parking)
//     and the sealed prefix is merged into a rebuilt cracker array,
//     with the old index's piece table carried over so refinement
//     knowledge earned by earlier queries survives (the group-apply
//     analogue of the paper's §7 group cracking: many queued updates,
//     one structural pass).
//   - The rebalancer watches per-shard row counts and splits shards
//     that drifted above SplitFactor times the mean or merges adjacent
//     dwarf shards, so a skewed insert storm cannot
//     concentrate all future work in one latch domain. Readers never
//     block on any of this: structural operations publish a new shard
//     map while queries in flight keep their own consistent snapshot
//     (see internal/shard/update.go).
//
// Durability and recovery: the log holds data, the checkpoint holds
// structure. The checkpoint writer (checkpoint.go) periodically hands
// the column's image — shard cuts, every shard's array in piece order
// and its seeds, cut at an epoch watermark — to Options.SnapshotWriter,
// then truncates the log prefix the image supersedes. The sink is
// rotated before the watermark is cut, so every write tagged above the
// watermark is logged into a segment the truncation keeps: recovery
// adopts the image (shard.Restore) and replays exactly the logged
// writes beyond its watermark. A group-apply, split or merge after the
// image is lost in a crash and simply re-derived. internal/durable
// packages the whole lifecycle behind Open/Close.
package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/wal"
	"adaptix/internal/wcapture"
)

// Op is one batched write operation (Apply).
type Op struct {
	// Delete selects deletion of one instance of Value; otherwise the
	// op inserts Value.
	Delete bool
	// Value is the column value inserted or deleted.
	Value int64
}

// WriteLog is the log a coordinator records its writes in
// (Options.Log); a durable store's is its *wal.FileSink. Both methods
// are safe for concurrent use.
type WriteLog interface {
	// LogWrite appends the record of one routed write: v inserted, or
	// deleted when del is set, in epoch. It does not fsync.
	LogWrite(v, epoch int64, del bool) error
	// Sync makes every record whose LogWrite returned before the call
	// durable.
	Sync() error
}

// Options configures a Coordinator.
type Options struct {
	// ApplyThreshold is the number of pending differential updates in
	// one shard that triggers a group-apply merge. Default 512.
	ApplyThreshold int
	// SplitFactor triggers a shard split when a shard's row count
	// exceeds SplitFactor times the mean. Default 2.
	SplitFactor float64
	// MinShardRows is the smallest shard the rebalancer will split.
	// Default 2048.
	MinShardRows int
	// CheckEvery is the number of routed writes between background
	// maintenance wake-ups. Default ApplyThreshold/2.
	CheckEvery int
	// Log, when non-nil, enables data-tail durability: every routed
	// insert and every delete that found an instance is logged through
	// one LogWrite call (value + op + epoch id). Recovery replays
	// the records past the last snapshot's epoch watermark on top of the
	// snapshot, closing the lose-writes-since-last-checkpoint window for
	// deployments where adaptix is the primary store. Structural work
	// logs nothing. Records are fsynced in groups, not per write;
	// SyncEvery and SyncInterval bound the unsynced window. The log is
	// fail-stop: the write whose append or fsync fails returns the
	// error, and so does every later write until the store is reopened.
	Log WriteLog
	// SyncEvery is the group-commit record bound: with a Log, the log is
	// fsynced after every SyncEvery logical records, and the write that
	// completes a batch is acknowledged only once an fsync covering it
	// has completed, so a crash loses at most SyncEvery-1 acknowledged
	// writes per batch whose fsync has not completed (plus whatever the
	// interval below has not yet covered). Default ApplyThreshold; 1
	// fsyncs every write.
	SyncEvery int
	// SyncInterval is the group-commit time bound: with a Log, a
	// background ticker fsyncs any unsynced logical records every
	// SyncInterval, so the loss window is bounded in time even when
	// the write rate is too low to reach SyncEvery. Zero disables the
	// ticker. The ticker runs between Start and Close.
	SyncInterval time.Duration
	// CheckpointEvery is the number of structural operations (group-
	// applies, splits, merges) between automatic checkpoints (see Checkpoint). Zero disables
	// automatic checkpoints; Checkpoint can still be called manually and
	// Close always takes a final one when a SnapshotWriter is
	// configured.
	CheckpointEvery int
	// Sink, when non-nil, is the Log's segment sink; checkpoints rotate
	// it before they cut the epoch watermark and truncate the dead log
	// prefix once the snapshot is durable.
	Sink wal.SegmentTruncator
	// SnapshotWriter, when non-nil, persists the column's image as of a
	// checkpoint's epoch watermark and returns only once it is durable;
	// it is what a checkpoint is. An error aborts the checkpoint and
	// leaves the log prefix in place.
	SnapshotWriter func(img shard.Image) error
	// Obs, when non-nil, receives write-path observations: routed-write
	// latency, group-commit batch sizes, and checkpoint durations.
	// (Structural seal/apply/split/merge durations are recorded by the
	// column itself through shard.Options.Obs.)
	Obs *metrics.Observer
}

func (o Options) withDefaults() Options {
	if o.ApplyThreshold <= 0 {
		o.ApplyThreshold = 512
	}
	if o.SplitFactor <= 1 {
		o.SplitFactor = 2
	}
	if o.MinShardRows <= 0 {
		o.MinShardRows = 2048
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = o.ApplyThreshold / 2
		if o.CheckEvery == 0 {
			o.CheckEvery = 1
		}
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = o.ApplyThreshold
	}
	return o
}

// Stats counts the coordinator's activity.
type Stats struct {
	// Writes is the number of routed updates (inserts + deletes,
	// including failed deletes).
	Writes int64
	// Applied counts group-apply merges.
	Applied int64
	// EpochSeals counts epochs sealed ahead of a group-apply merge.
	EpochSeals int64
	// LoggedWrites counts the writes logged (Options.Log).
	LoggedWrites int64
	// GroupSyncs counts group-commit fsyncs forced by
	// Options.SyncEvery / Options.SyncInterval: every fsync the
	// coordinator asks of its log.
	GroupSyncs int64
	// Splits and Merges count rebalancing operations.
	Splits, Merges int64
	// Checkpoints counts snapshots written by Checkpoint.
	Checkpoints int64
}

// Coordinator owns the write path of one sharded column: it routes
// updates, group-applies differential files, and rebalances the shard
// map. All methods are safe for concurrent use; reads go directly to
// the column and are never routed through the Coordinator.
type Coordinator struct {
	col  *shard.Column
	opts Options
	// cap is the column's workload recorder (shard.Options.Capture),
	// cached so the write path records without re-copying the column
	// options per write. Nil-safe and usually inactive.
	cap *wcapture.Recorder

	writes    atomic.Int64
	applied   atomic.Int64
	seals     atomic.Int64
	logged    atomic.Int64 // logical records appended; a record's count is its sequence
	syncs     atomic.Int64
	unsynced  atomic.Int64 // logical records appended since the last fsync
	splits    atomic.Int64
	merges    atomic.Int64
	ckpts     atomic.Int64
	sinceCkpt atomic.Int64 // structural ops since the last checkpoint

	// syncedThrough is the highest record sequence a completed fsync
	// covers, raised under syncMu; syncDone is broadcast with it, and
	// wakes the rare writer that must wait for another writer's fsync.
	syncMu        sync.Mutex
	syncDone      sync.Cond
	syncedThrough int64

	// logErr is the first failed append or fsync of Options.Log. After a
	// failed fsync a later one can report success over pages the kernel
	// dropped, so from then on no write is acknowledged.
	logErr atomic.Pointer[error]

	maintMu sync.Mutex // one maintenance pass at a time

	startMu sync.Mutex
	notify  chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

// New creates a coordinator over col.
func New(col *shard.Column, opts Options) *Coordinator {
	opts = opts.withDefaults()
	g := &Coordinator{
		col:    col,
		opts:   opts,
		cap:    col.Options().Capture,
		notify: make(chan struct{}, 1),
	}
	g.syncDone.L = &g.syncMu
	return g
}

// Column returns the underlying sharded column (the read surface).
func (g *Coordinator) Column() *shard.Column { return g.col }

// Stats returns a snapshot of the coordinator's activity counters.
func (g *Coordinator) Stats() Stats {
	return Stats{
		Writes:       g.writes.Load(),
		Applied:      g.applied.Load(),
		EpochSeals:   g.seals.Load(),
		LoggedWrites: g.logged.Load(),
		GroupSyncs:   g.syncs.Load(),
		Splits:       g.splits.Load(),
		Merges:       g.merges.Load(),
		Checkpoints:  g.ckpts.Load(),
	}
}

// Insert routes one insert to the owning shard's open epoch. A
// context cancelled before the write routes — or while the writer is
// parked behind a structural reroute — returns ctx.Err() with the
// write not applied.
func (g *Coordinator) Insert(ctx context.Context, v int64) error {
	if err := g.admit(ctx); err != nil {
		return err
	}
	span := g.opts.Obs.WriteStart()
	eid, err := g.col.InsertEpoch(ctx, v)
	if err != nil {
		return err
	}
	if err := g.logWrite(v, eid, false); err != nil {
		return err
	}
	g.cap.RecordWrite(v, false, false)
	g.wrote(1)
	g.opts.Obs.RecordWrite(span)
	return nil
}

// DeleteValue routes one delete, reporting whether an instance existed.
func (g *Coordinator) DeleteValue(ctx context.Context, v int64) (bool, error) {
	if err := g.admit(ctx); err != nil {
		return false, err
	}
	span := g.opts.Obs.WriteStart()
	deleted, eid, err := g.col.DeleteValueEpoch(ctx, v)
	if err != nil {
		return false, err
	}
	if deleted {
		if err := g.logWrite(v, eid, true); err != nil {
			return false, err
		}
	}
	g.cap.RecordWrite(v, true, deleted)
	g.wrote(1)
	g.opts.Obs.RecordWrite(span)
	return deleted, nil
}

// Apply routes a batch of write operations and returns the number of
// deletes that found an instance. The batch is routed op-by-op (each
// shard's open epoch has its own short latch); batching pays off at
// the structural level, where one group-apply merges the whole sealed
// epoch prefix in a single pass. On a context error the batch stops
// where it stands: ops already routed stay applied, the rest are not.
func (g *Coordinator) Apply(ctx context.Context, batch []Op) (deleted int, err error) {
	for _, op := range batch {
		// The stop-where-it-stands contract: cancellation between ops
		// aborts the rest of the batch even when no write ever parks.
		if err := g.admit(ctx); err != nil {
			return deleted, err
		}
		span := g.opts.Obs.WriteStart()
		if op.Delete {
			ok, eid, err := g.col.DeleteValueEpoch(ctx, op.Value)
			if err != nil {
				return deleted, err
			}
			if ok {
				deleted++
				if err := g.logWrite(op.Value, eid, true); err != nil {
					return deleted, err
				}
			}
			g.cap.RecordWrite(op.Value, true, ok)
		} else {
			eid, err := g.col.InsertEpoch(ctx, op.Value)
			if err != nil {
				return deleted, err
			}
			if err := g.logWrite(op.Value, eid, false); err != nil {
				return deleted, err
			}
			g.cap.RecordWrite(op.Value, false, false)
		}
		g.opts.Obs.RecordWrite(span)
	}
	g.wrote(int64(len(batch)))
	return deleted, nil
}

// admit returns the error a write fails with before it routes: its
// context's, or the log's once the log has failed.
func (g *Coordinator) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p := g.logErr.Load(); p != nil {
		return *p
	}
	return nil
}

// failLog stops the log at its first error and returns the error every
// write gets from then on.
func (g *Coordinator) failLog(err error) error {
	err = fmt.Errorf("ingest: write log failed, writes refused until reopen: %w", err)
	g.logErr.CompareAndSwap(nil, &err)
	return *g.logErr.Load()
}

// logWrite logs one write when the coordinator has a log: the
// data-tail durability path. The record is fsynced under
// the group-commit policy (SyncEvery / SyncInterval); its epoch tag —
// not its log position — decides during recovery whether the snapshot
// already contains it. A failed append or fsync stops the log
// (failLog), and the write that hit it returns the error.
func (g *Coordinator) logWrite(v, epochID int64, del bool) error {
	if g.opts.Log == nil {
		return nil
	}
	if err := g.opts.Log.LogWrite(v, epochID, del); err != nil {
		return g.failLog(err)
	}
	return g.maybeGroupSync(g.logged.Add(1))
}

// syncElect runs between a writer's unsynced count reaching SyncEvery
// and its attempt to become the syncer: a test seam, so a test can let
// another writer or the interval ticker win the election first.
var syncElect = func() {}

// maybeGroupSync enforces the SyncEvery half of the group-commit
// policy for the record with sequence seq: once SyncEvery logical
// records have accumulated since the last fsync, force one; the
// interval ticker fsyncs whatever the counter holds when it fires.
// Concurrent writers that cross the threshold together elect exactly
// one syncer: only the one whose count is still current resets it, so
// no increment is lost and one batch never costs two fsyncs. A writer
// that crossed the threshold but lost the election to another writer or
// to the ticker waits for the winner's fsync, which started after its
// record was appended, so it is never acknowledged before an fsync
// covers it.
func (g *Coordinator) maybeGroupSync(seq int64) error {
	n := g.unsynced.Add(1)
	if n < int64(g.opts.SyncEvery) {
		return nil
	}
	syncElect()
	if !g.unsynced.CompareAndSwap(n, 0) {
		return g.awaitSync(seq)
	}
	return g.groupSync(n)
}

// groupSync fsyncs the log for a batch of n records whose counter the
// caller has just reset, and publishes the sequence the fsync covers:
// every record counted before the reset was appended before the fsync.
func (g *Coordinator) groupSync(n int64) error {
	through := g.logged.Load()
	err := g.opts.Log.Sync()
	if err != nil {
		err = g.failLog(err)
	} else {
		g.syncs.Add(1)
		g.opts.Obs.RecordCommitBatch(n)
	}
	g.syncMu.Lock()
	if err == nil && through > g.syncedThrough {
		g.syncedThrough = through
	}
	g.syncDone.Broadcast()
	g.syncMu.Unlock()
	return err
}

// awaitSync blocks until a completed fsync covers the record with
// sequence seq, or the log has failed.
func (g *Coordinator) awaitSync(seq int64) error {
	g.syncMu.Lock()
	defer g.syncMu.Unlock()
	for g.syncedThrough < seq {
		if p := g.logErr.Load(); p != nil {
			return *p
		}
		g.syncDone.Wait()
	}
	return nil
}

// groupSyncTick enforces the SyncInterval half: fsync any records the
// record-count bound has not yet covered. No write waits on a failed
// tick; the next one gets the error.
func (g *Coordinator) groupSyncTick() {
	if n := g.unsynced.Swap(0); n > 0 {
		_ = g.groupSync(n)
	}
}

// wrote counts routed writes and wakes the background worker every
// CheckEvery writes (non-blocking; a pending wake-up is enough).
func (g *Coordinator) wrote(n int64) {
	before := g.writes.Add(n) - n
	if before/int64(g.opts.CheckEvery) == (before+n)/int64(g.opts.CheckEvery) {
		return
	}
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// Start launches the background maintenance worker (idempotent). The
// worker wakes every CheckEvery routed writes and runs one Maintain
// pass.
func (g *Coordinator) Start() {
	g.startMu.Lock()
	defer g.startMu.Unlock()
	if g.stop != nil {
		return
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go g.loop(g.stop, g.done)
}

// Close stops the background worker (idempotent; a no-op when Start
// was never called) and runs one final Maintain pass so the column is
// left merged and balanced, followed by a final checkpoint when a
// SnapshotWriter is configured, so a clean shutdown persists all
// refinement earned.
func (g *Coordinator) Close() {
	g.startMu.Lock()
	stop, done := g.stop, g.done
	g.stop, g.done = nil, nil
	g.startMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	g.Maintain()
	g.Checkpoint()
}

func (g *Coordinator) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	// The group-commit interval ticker (Options.SyncInterval) shares
	// the maintenance goroutine: its tick only fsyncs, never merges.
	var tick <-chan time.Time
	if g.opts.SyncInterval > 0 && g.opts.Log != nil {
		t := time.NewTicker(g.opts.SyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-g.notify:
			g.Maintain()
		case <-tick:
			g.groupSyncTick()
		}
	}
}

// Maintain runs one synchronous maintenance pass: group-apply every
// shard whose differential file exceeds ApplyThreshold, then one
// rebalance pass. It returns the number of structural operations
// performed.
func (g *Coordinator) Maintain() int {
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	ops := 0
	// Descending ordinals: a structural change at shard i never moves
	// the ordinals of shards below i.
	loads := g.col.Loads()
	for i := len(loads) - 1; i >= 0; i-- {
		if loads[i].Pending >= g.opts.ApplyThreshold {
			if g.applyShard(i) {
				ops++
			}
		}
	}
	splits, merges := g.Rebalance()
	total := ops + splits + merges
	g.maybeCheckpoint(total)
	return total
}

// applyShard group-applies shard i in the two structural steps: seal
// the open epoch (writers roll over; they never park), then merge every
// sealed epoch into a rebuilt part. It reports whether a merge happened.
func (g *Coordinator) applyShard(i int) bool {
	if _, ok := g.col.SealEpoch(i); ok {
		g.seals.Add(1)
	}
	// Even with nothing newly sealed, earlier sealed epochs (a checkpoint
	// roll, or a previous pass whose merge step failed) may be pending.
	if _, ok := g.col.ApplySealed(i); !ok {
		return false
	}
	g.applied.Add(1)
	return true
}
