package ingest_test

import (
	"fmt"
	"testing"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// TestWriteDuringMergeAgreement is the epoch write path's agreement
// test: the deterministic concurrent read/write mix runs through the
// mutable scan baseline and the sharded column with epoch chains — while a dedicated goroutine forces
// group-apply merges on every shard continuously, so queries and
// writes constantly race seal/rebuild/publish cycles mid-query. The
// quiesced final checksums must be identical at 1, 4, and 16 clients.
// Run under -race by CI.
func TestWriteDuringMergeAgreement(t *testing.T) {
	const rows = 1 << 13
	opsPerClient := 1500
	if testing.Short() {
		opsPerClient = 400
	}
	d := workload.NewUniqueUniform(rows, 31)
	for _, clients := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			scan := scanAdapter{baseline.NewMutable(d.Values)}
			col := shard.New(d.Values, shard.Options{
				Shards: 4, Seed: 9,
				Index: crackindex.Options{Latching: crackindex.LatchPiece},
			})
			// High threshold: the merge-forcer below, not the
			// coordinator's cadence, drives the group applies.
			g := ingest.New(col, ingest.Options{
				ApplyThreshold: 1 << 20, MinShardRows: 512,
			})

			driveMixed(scan, rows, clients, opsPerClient, 0.5)

			// The merge forcer runs on the test goroutine until the mix
			// is drained (one final pass included), so the merges
			// genuinely interleave with queries and writes even on a
			// single-core scheduler.
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
				t.Errorf("sharded+epochs final checksum %d, scan baseline %d", got, want)
			}
			if err := col.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}
