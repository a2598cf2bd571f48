// Checkpoints: the snapshot is the checkpoint. The column's image — the
// shard map, every shard's array in piece order and its seeds, cut at an
// epoch watermark W — goes to the SnapshotWriter, and the log segments
// the image supersedes are released. No checkpoint record is logged, and
// no structural change is logged either: an image captures the effect
// of every one of them whole (paper §4.2), so recovery adopts the image
// instead of re-deriving it from records.
package ingest

import (
	"time"

	"adaptix/internal/metrics"
)

// Checkpoint hands the column's image to the SnapshotWriter and then
// releases the log prefix it supersedes, in this order:
//
//  1. rotate the sink (wal.SegmentTruncator.MarkCheckpoint): every
//     record logged from here on lands in the fresh segment or later;
//  2. seal every shard's open epoch at a common watermark W
//     (shard.Column.SealAllEpochs): each write routed so far is in an
//     epoch <= W, each later one lands above it;
//  3. capture the image as of W (shard.Column.ImageAt) and write it;
//  4. once the writer reports it durable, delete the segments before the
//     rotation (ReleaseBefore).
//
// A write tagged above W was routed after step 2, hence logged after
// step 1, so its record is never released; a write tagged at or below W
// is in the image. The image and the log's records above W therefore
// partition the write history without gap or overlap, whatever the
// writers do meanwhile. A failure at any step leaves the previous
// snapshot and every segment it needs in place. Reports whether the
// image was written (false without a SnapshotWriter).
//
// Checkpoint serializes with Maintain: both hold the maintenance lock,
// so no group-apply, split or merge folds a write above W into a shard's
// base between the seal and the capture.
func (g *Coordinator) Checkpoint() bool {
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	return g.checkpointLocked()
}

// checkpointLocked is Checkpoint under an already-held maintenance
// lock (Maintain's periodic trigger).
func (g *Coordinator) checkpointLocked() bool {
	if g.opts.SnapshotWriter == nil {
		return false
	}
	t0 := time.Now()
	seg := 0
	if g.opts.Sink != nil {
		var err error
		if seg, err = g.opts.Sink.MarkCheckpoint(); err != nil {
			return false
		}
	}
	if err := g.opts.SnapshotWriter(g.col.ImageAt(g.col.SealAllEpochs())); err != nil {
		return false
	}
	g.ckpts.Add(1)
	if g.opts.Sink != nil {
		// The snapshot is durable, so the prefix is dead; failure to
		// delete it only wastes space — a stale segment cannot mask later
		// ones (wal.ReadDir resumes at segment boundaries past damaged
		// tails), and recovery filters its records by the snapshot's
		// watermark.
		_ = g.opts.Sink.ReleaseBefore(seg)
	}
	g.sinceCkpt.Store(0)
	// The log prefix before the checkpoint is dead: restart the
	// WAL-growth gauges the watchdog's wal-since-checkpoint rule reads.
	g.opts.Obs.ResetWALSince()
	g.opts.Obs.RecordStructural(metrics.EvCheckpoint, -1, time.Since(t0), 0)
	return true
}

// maybeCheckpoint runs a checkpoint when CheckpointEvery structural
// operations have accumulated since the last one. Caller must hold the
// maintenance lock.
func (g *Coordinator) maybeCheckpoint(structuralOps int) {
	if g.opts.CheckpointEvery <= 0 || structuralOps == 0 {
		return
	}
	if g.sinceCkpt.Add(int64(structuralOps)) >= int64(g.opts.CheckpointEvery) {
		g.checkpointLocked()
	}
}
