package ingest_test

import (
	"fmt"
	"testing"

	"adaptix/internal/amerge"
	"adaptix/internal/baseline"
	"adaptix/internal/engine"
	"adaptix/internal/hybrid"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// TestSourceShardWriteAgreement is the unified-write-surface agreement
// test: the same deterministic concurrent read/write mix that the
// crack-sharded column passes must also hold when the shards are built
// over adaptive merging and hybrid crack-sort (shard.Options.Source) —
// the epoch-chain write path is method-agnostic. A merge forcer keeps
// group-applying every shard throughout, so routed writes, snapshot
// reads, and source rebuilds race continuously. The quiesced final
// checksums must match the mutable scan baseline at 1, 4, and 16
// clients. Run under -race by CI.
func TestSourceShardWriteAgreement(t *testing.T) {
	const rows = 1 << 12
	opsPerClient := 700
	if testing.Short() {
		opsPerClient = 250
	}
	d := workload.NewUniqueUniform(rows, 67)
	sources := []struct {
		name string
		mk   func(values []int64) engine.AggregateSource
	}{
		{"amerge", func(values []int64) engine.AggregateSource {
			return amerge.New(values, amerge.Options{RunSize: 1 << 10})
		}},
		{"hybrid", func(values []int64) engine.AggregateSource {
			return hybrid.New(values, hybrid.Options{PartitionSize: 1 << 10})
		}},
	}
	for _, src := range sources {
		for _, clients := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/clients=%d", src.name, clients), func(t *testing.T) {
				scan := scanAdapter{baseline.NewMutable(d.Values)}
				col := shard.New(d.Values, shard.Options{
					Shards: 4, Seed: 9, Source: src.mk,
				})
				g := ingest.New(col, ingest.Options{
					ApplyThreshold: 1 << 20, MinShardRows: 512,
				})

				driveMixed(scan, rows, clients, opsPerClient, 0.5)

				mixDone := make(chan struct{})
				go func() {
					defer close(mixDone)
					driveMixed(ingestAdapter{g}, rows, clients, opsPerClient, 0.5)
				}()
				merges := 0
				for running := true; running; {
					select {
					case <-mixDone:
						running = false
					default:
					}
					for s := 0; s < col.NumShards(); s++ {
						if _, ok := col.ApplyShard(s); ok {
							merges++
						}
					}
				}
				if merges == 0 {
					t.Fatal("the merge forcer never found pending epochs: the race never happened")
				}

				want := finalChecksum(scan, rows)
				if got := finalChecksum(ingestAdapter{g}, rows); got != want {
					t.Errorf("sharded/%s final checksum %d, scan baseline %d", src.name, got, want)
				}
				if err := col.Validate(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
