package experiments

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// CollisionCell is one run of the single-writer collision harness.
type CollisionCell struct {
	// Inserts is the number of routed writes the single writer issued.
	Inserts int
	// Applies counts the group-apply rebuilds the forcer committed —
	// each one is a collision opportunity.
	Applies int64
	// P50, P99 and Max summarize the per-insert latency distribution.
	P50, P99, Max time.Duration
	// Stalled counts inserts that exceeded the stall threshold
	// (100µs — orders of magnitude above an uncontended epoch append),
	// and TotalStall sums their latencies. On a fast machine the stall
	// count is a tiny fraction of all inserts, so the percentiles
	// dilute it; these two report the collision tail undiluted.
	Stalled    int
	TotalStall time.Duration
}

// stallThreshold separates a delayed insert from an ordinary epoch
// append in the collision harness.
const stallThreshold = 100 * time.Microsecond

// WriterCollision is the dedicated single-writer collision harness.
//
// The ReadWriteMix ablation shows the writer-stall tail at 4 and 16
// clients, but a single writer rarely happens to race a group-apply
// rebuild, so the 1-client cells under-represent it. This harness
// removes the luck: ONE writer streams inserts into one shard while a
// forcer goroutine group-applies that same shard continuously, so
// nearly every rebuild overlaps the write stream. The writer never
// parks — it rolls over to the next epoch file — so its p99 stays near
// an epoch append however long a rebuild takes.
func WriterCollision(cfg Config, w io.Writer) *CollisionCell {
	cfg = cfg.Defaults()
	c := runCollisionCell(cfg, cfg.dataset())
	if w != nil {
		t := &metrics.Table{Header: []string{"inserts", "applies", "p50", "p99", "max", "stalled", "total stall"}}
		t.Add(fmt.Sprint(c.Inserts), fmt.Sprint(c.Applies),
			metrics.FormatDuration(c.P50),
			metrics.FormatDuration(c.P99),
			metrics.FormatDuration(c.Max),
			fmt.Sprint(c.Stalled),
			metrics.FormatDuration(c.TotalStall))
		fmt.Fprintf(w, "Single-writer collision harness: 1 writer vs a continuous group-apply forcer, %d rows\n%s\n",
			cfg.Rows, t)
	}
	return &c
}

func runCollisionCell(cfg Config, d *workload.Dataset) CollisionCell {
	// Two fat shards: the rebuild of the written shard is expensive
	// enough that a writer stalled behind it would be clearly visible.
	col := shard.New(d.Values, shard.Options{
		Shards: 2, Seed: cfg.Seed,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	cell := CollisionCell{Inserts: cfg.Queries * 8}

	// The forcer group-applies shard 0 — the only shard written — as
	// soon as a realistic batch of pending writes accumulates (the
	// same trigger shape as ingest's ApplyThreshold, just with no
	// cadence slack), so nearly every rebuild overlaps the write
	// stream without degenerating into empty back-to-back applies.
	// The writer does not start until the forcer is live (the ready
	// gate), so even the first inserts race a rebuild.
	const applyBatch = 256
	var applies atomic.Int64
	ready := make(chan struct{})
	writerDone := make(chan struct{})
	forcerDone := make(chan struct{})
	go func() {
		defer close(forcerDone)
		close(ready)
		for {
			select {
			case <-writerDone:
				return
			default:
			}
			if col.Loads()[0].Pending < applyBatch {
				// Back off instead of busy-polling: a hot spin loop would
				// pollute the very latency distribution the harness
				// measures.
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if _, ok := col.ApplyShard(0); ok {
				applies.Add(1)
			}
		}
	}()
	<-ready

	// The single writer streams inserts into shard 0's value band. It
	// runs for at least Inserts writes and then keeps going until the
	// forcer has committed a meaningful number of rebuilds (bounded by
	// a hard deadline), so the latency distribution actually contains
	// collisions even on a fast machine where the minimum insert count
	// completes in microseconds.
	const minApplies = 32
	deadline := time.Now().Add(2 * time.Second)
	band := col.Bounds()[0]
	if band <= 1 {
		band = 2
	}
	r := workload.NewRNG(cfg.Seed + 77)
	stalls := make([]time.Duration, 0, cell.Inserts)
	for i := 0; i < cell.Inserts || (applies.Load() < minApplies && time.Now().Before(deadline)); i++ {
		v := r.Int64n(band)
		t0 := time.Now()
		_ = col.Insert(context.Background(), v)
		stalls = append(stalls, time.Since(t0))
	}
	close(writerDone)
	<-forcerDone
	cell.Inserts = len(stalls)

	cell.Applies = applies.Load()
	for _, s := range stalls {
		if s >= stallThreshold {
			cell.Stalled++
			cell.TotalStall += s
		}
	}
	cell.P50 = percentile(stalls, 0.50)
	cell.P99 = percentile(stalls, 0.99)
	cell.Max = percentile(stalls, 1.0)
	return cell
}
