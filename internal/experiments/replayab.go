// The replay-driven A/B harness: capture one workload, re-execute the
// identical operation stream against competing engine configurations.
// Generator-driven A/B runs compare configurations on *statistically*
// equal load; replaying one captured trace compares them on *the same*
// load, operation for operation, with every answer checksummed against
// the capture run — a configuration that wins here wins with its
// correctness proven on the exact stream it was measured on.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/wcapture"
	"adaptix/internal/workload"
)

// ReplayABCell is one configuration's result on the shared trace.
type ReplayABCell struct {
	// Name labels the configuration variant.
	Name string
	// Records, Reads, and Writes echo the replayed trace composition.
	Records, Reads, Writes int
	// Mismatches counts checksum divergences from the capture run
	// (always 0 for a healthy engine: the determinism contract).
	Mismatches int
	// Elapsed and Throughput measure the replay (flat-out pacing).
	Elapsed time.Duration
	// Throughput is Records/Elapsed in operations per second.
	Throughput float64
	// ShardsAfter is the shard count once the replayed writes have
	// driven the rebalancer.
	ShardsAfter int
}

// ReplayABReport is the harness outcome: the capture-side workload
// signature plus one cell per engine variant, all fed the same trace.
type ReplayABReport struct {
	// Signature characterizes the captured workload the variants replay.
	Signature wcapture.Signature
	// Cells holds one result per variant, in variant order.
	Cells []ReplayABCell
}

// replayVariant is one engine configuration under comparison.
type replayVariant struct {
	name  string
	shard shard.Options
	ing   ingest.Options
}

// colTarget adapts a raw shard.Column + ingest.Coordinator pairing to
// the replayer's execution surface (the facade-free analogue of
// adaptix.ReplayTrace).
type colTarget struct {
	col *shard.Column
	g   *ingest.Coordinator
}

// Count evaluates the range count on the column.
func (t colTarget) Count(ctx context.Context, lo, hi int64) (int64, error) {
	v, _, err := t.col.Count(ctx, lo, hi)
	return v, err
}

// Sum evaluates the range sum on the column.
func (t colTarget) Sum(ctx context.Context, lo, hi int64) (int64, error) {
	v, _, err := t.col.Sum(ctx, lo, hi)
	return v, err
}

// Insert routes one insert through the coordinator.
func (t colTarget) Insert(ctx context.Context, v int64) error { return t.g.Insert(ctx, v) }

// Delete routes one delete through the coordinator.
func (t colTarget) Delete(ctx context.Context, v int64) (bool, error) {
	return t.g.DeleteValue(ctx, v)
}

// ReplayAB captures one serial mixed workload (cfg.Queries operations,
// 10% writes, 1% selectivity), then replays the trace — with checksum
// verification — against three engine variants: 2 vs 8 shards, and 8
// shards with a low group-apply threshold (rebuilds collide with the
// write stream). When w is non-nil a table is rendered.
func ReplayAB(cfg Config, w io.Writer) *ReplayABReport {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	ctx := context.Background()

	// Capture leg: in-memory ring sized to hold the whole run, so the
	// trace comes straight from Retained with nothing dropped.
	ring := 64
	for ring < cfg.Queries {
		ring *= 2
	}
	rec, err := wcapture.New(wcapture.Options{Ring: ring}, true, nil)
	if err != nil {
		panic(err) // no sink, no I/O: cannot fail
	}
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: cfg.Seed, Capture: rec,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	if lo, hi, ok := col.KeyDomain(); ok {
		rec.SetDomain(lo, hi)
	}
	g := ingest.New(col, ingest.Options{})
	runReplaySource(ctx, cfg, d, colTarget{col: col, g: g})
	g.Close()
	recs := rec.Retained()
	rep := &ReplayABReport{Signature: rec.Signature()}
	rec.Close()

	variants := []replayVariant{
		{name: "shards=2", shard: shard.Options{Shards: 2}},
		{name: "shards=8", shard: shard.Options{Shards: 8}},
		{name: "shards=8 low-apply", shard: shard.Options{Shards: 8},
			ing: ingest.Options{ApplyThreshold: 64, CheckEvery: 32}},
	}
	for _, v := range variants {
		v.shard.Seed = cfg.Seed
		v.shard.Index = crackindex.Options{Latching: crackindex.LatchPiece}
		vcol := shard.New(d.Values, v.shard)
		vg := ingest.New(vcol, v.ing)
		vg.Start()
		r, err := wcapture.Replay(ctx, recs, colTarget{col: vcol, g: vg},
			wcapture.ReplayOptions{Verify: true})
		vg.Close()
		if err != nil {
			panic(fmt.Sprintf("replay %s: %v", v.name, err))
		}
		rep.Cells = append(rep.Cells, ReplayABCell{
			Name: v.name, Records: r.Records, Reads: r.Reads, Writes: r.Writes,
			Mismatches: r.Mismatches, Elapsed: r.Elapsed, Throughput: r.PerSec,
			ShardsAfter: vcol.NumShards(),
		})
	}

	if w != nil {
		fmt.Fprintf(w, "Replay A/B: %d records (%d reads / %d writes), %d rows, verify on\n",
			len(recs), rep.Signature.Reads, rep.Signature.Writes, cfg.Rows)
		for _, c := range rep.Cells {
			fmt.Fprintf(w, "  %-20s %8.0f ops/s  %8s  mismatches=%d  shards=%d\n",
				c.Name, c.Throughput, c.Elapsed.Round(time.Millisecond),
				c.Mismatches, c.ShardsAfter)
		}
		fmt.Fprintln(w)
	}
	return rep
}

// runReplaySource drives the capture leg: one serial client, 1%
// selectivity reads alternating count/sum, every 10th operation a
// write (fresh-key inserts and hit-or-miss deletes).
func runReplaySource(ctx context.Context, cfg Config, d *workload.Dataset, t colTarget) {
	gen := workload.NewUniform(workload.Count, d.Domain, 0.01, cfg.Seed+1)
	rng := workload.NewRNG(cfg.Seed + 2)
	fresh := d.Domain
	for i := 0; i < cfg.Queries; i++ {
		switch {
		case i%10 == 9:
			if rng.Intn(2) == 0 {
				fresh++
				if err := t.Insert(ctx, fresh); err != nil {
					panic(err)
				}
			} else {
				if _, err := t.Delete(ctx, rng.Int64n(2*d.Domain)); err != nil {
					panic(err)
				}
			}
		case i%2 == 0:
			q := gen.Next()
			if _, err := t.Count(ctx, q.Lo, q.Hi); err != nil {
				panic(err)
			}
		default:
			q := gen.Next()
			if _, err := t.Sum(ctx, q.Lo, q.Hi); err != nil {
				panic(err)
			}
		}
	}
}
