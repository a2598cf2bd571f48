package shard_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"adaptix/internal/amerge"
	"adaptix/internal/hybrid"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/harness"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// TestCrossEngineChecksumAgreement runs the same seeded query stream
// through the scan baseline, the single-column crack engine, and the
// sharded engine at several client counts and asserts that every run
// folds to the identical checksum: concurrency, partitioning, and
// fan-out merging must never change an answer. Run under -race by CI.
func TestCrossEngineChecksumAgreement(t *testing.T) {
	const rows = 1 << 14
	d := workload.NewUniqueUniform(rows, 11)
	streams := []struct {
		name string
		gen  workload.Generator
	}{
		{"uniform-sum", workload.NewUniform(workload.Sum, d.Domain, 0.01, 31)},
		{"uniform-count", workload.NewUniform(workload.Count, d.Domain, 0.001, 37)},
		{"skewed-zipf", workload.NewZipf(workload.Sum, d.Domain, 0.005, 1.0, 41)},
		{"sequential", workload.NewSequential(workload.Count, d.Domain, 0.02)},
	}
	for _, s := range streams {
		qs := workload.Fixed(s.gen, 192)
		for _, clients := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/clients=%d", s.name, clients), func(t *testing.T) {
				engines := []engine.Engine{
					baseline.NewScan(d.Values),
					engine.Named(engine.SourceFromIndex(crackindex.New(d.Values, crackindex.Options{
						Latching: crackindex.LatchPiece,
					})), "crack"),
					engine.Named(shard.New(d.Values, shard.Options{
						Shards: 4, Seed: 5,
						Index: crackindex.Options{Latching: crackindex.LatchPiece},
					}), "sharded"),
				}
				want := harness.Execute(engines[0], qs, clients).Checksum
				for _, e := range engines[1:] {
					run := harness.Execute(e, qs, clients)
					if run.Checksum != want {
						t.Errorf("%s checksum %d, scan baseline %d", e.Name(), run.Checksum, want)
					}
				}
			})
		}
	}
}

// TestShardedEngineAgainstDuplicates repeats the agreement check on a
// duplicate-heavy dataset, where quantile cuts collapse and shards are
// unbalanced.
func TestShardedEngineAgainstDuplicates(t *testing.T) {
	d := workload.NewDuplicates(1<<13, 256, 13)
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.05, 17), 128)
	for _, clients := range []int{1, 4} {
		scan := harness.Execute(baseline.NewScan(d.Values), qs, clients)
		sharded := harness.Execute(engine.Named(shard.New(d.Values, shard.Options{
			Shards: 8,
			Index:  crackindex.Options{Latching: crackindex.LatchPiece},
		}), "sharded"), qs, clients)
		if sharded.Checksum != scan.Checksum {
			t.Errorf("clients=%d: sharded checksum %d, scan %d", clients, sharded.Checksum, scan.Checksum)
		}
	}
}

// TestCustomSourceShards builds the sharded column over adaptive-merge
// and hybrid per-shard indexes through Options.Source, and checks
// answers and the unified write
// surface: custom-source shards take routed writes through the same
// epoch chains as cracked shards, and group-applies rebuild them
// through the source factory.
func TestCustomSourceShards(t *testing.T) {
	ctx := context.Background()
	d := workload.NewUniqueUniform(1<<13, 51)
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.02, 53), 96)
	want := harness.Execute(baseline.NewScan(d.Values), qs, 1).Checksum

	sources := []struct {
		name string
		mk   func(values []int64) engine.AggregateSource
	}{
		{"amerge", func(values []int64) engine.AggregateSource {
			return amerge.New(values, amerge.Options{})
		}},
		{"hybrid", func(values []int64) engine.AggregateSource {
			return hybrid.New(values, hybrid.Options{})
		}},
	}
	for _, src := range sources {
		for _, clients := range []int{1, 4} {
			col := shard.New(d.Values, shard.Options{Shards: 4, Seed: 5, Source: src.mk})
			run := harness.Execute(engine.Named(col, "sharded/"+src.name), qs, clients)
			if run.Checksum != want {
				t.Errorf("%s clients=%d: checksum %d, scan %d", src.name, clients, run.Checksum, want)
			}

			// The write surface: routed writes land in the epoch chains
			// and queries see them immediately.
			before, _, _ := col.Count(ctx, -1<<40, 1<<40)
			for i := int64(0); i < 500; i++ {
				if err := col.Insert(ctx, d.Domain+i); err != nil {
					t.Fatalf("%s: Insert: %v", src.name, err)
				}
			}
			if ok, err := col.DeleteValue(ctx, d.Values[0]); err != nil || !ok {
				t.Fatalf("%s: DeleteValue = (%v, %v), want existing instance deleted", src.name, ok, err)
			}
			if n, _, _ := col.Count(ctx, -1<<40, 1<<40); n != before+500-1 {
				t.Errorf("%s: Count after writes = %d, want %d", src.name, n, before+500-1)
			}

			// Group-apply folds the epochs into a rebuilt source shard.
			applied := false
			for s := col.NumShards() - 1; s >= 0; s-- {
				if _, ok := col.ApplyShard(s); ok {
					applied = true
				}
			}
			if !applied {
				t.Errorf("%s: no shard group-applied despite pending epochs", src.name)
			}
			if n, _, _ := col.Count(ctx, -1<<40, 1<<40); n != before+500-1 {
				t.Errorf("%s: Count after apply = %d, want %d", src.name, n, before+500-1)
			}
			if err := col.Validate(); err != nil {
				t.Errorf("%s: %v", src.name, err)
			}
		}
	}
}

// TestCriticalPathStat checks the fan-out critical-path metric: for a
// query spanning several shards, Critical must be positive and no
// larger than the total work (Wait + Refine) ... it can legitimately
// exceed pure refinement time since it includes scan time, but it must
// never exceed the query's end-to-end response time.
func TestCriticalPathStat(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 57)
	col := shard.New(d.Values, shard.Options{
		Shards: 8, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	start := time.Now()
	// Clip one value off each end: the fringe shards are only partially
	// covered, so the query must fan out to real sub-queries instead of
	// being answered purely from the precomputed aggregates.
	_, res, err := col.Sum(context.Background(), 1, d.Domain-1)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical <= 0 {
		t.Fatalf("Critical = %v for a fan-out query, want > 0", res.Critical)
	}
	if res.Critical > elapsed {
		t.Errorf("Critical %v exceeds end-to-end response %v", res.Critical, elapsed)
	}
}
