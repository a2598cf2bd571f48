package experiments

import (
	"fmt"
	"io"
	"time"

	"adaptix/internal/amerge"
	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/harness"
	"adaptix/internal/hybrid"
	"adaptix/internal/latch"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// AblationReport holds total times for the design-choice ablations
// DESIGN.md calls out, all run with the same query sequence and
// client count.
type AblationReport struct {
	Clients int
	// Total[variant] is wall-clock time for the whole sequence.
	Total map[string]time.Duration
	// Conflicts[variant] counts latch conflicts.
	Conflicts map[string]int64
	// Order preserves presentation order.
	Order []string
}

// shardedVariant builds a sharded-cracking engine factory with P
// range partitions over the dataset (piece latches inside each shard).
func shardedVariant(d *workload.Dataset, p int, seed uint64) func() engine.Engine {
	return func() engine.Engine {
		return engine.Named(shard.New(d.Values, shard.Options{
			Shards: p, Seed: seed,
			Index: crackindex.Options{Latching: crackindex.LatchPiece},
		}), fmt.Sprintf("sharded/P=%d", p))
	}
}

// Ablations compares: middle-first vs FIFO crack scheduling, parallel
// vs serial two-bound cracking, pairs vs split array layout, wait vs
// skip conflict policy, the adaptive methods (crack vs amerge vs
// hybrid), and range-sharded cracking at increasing shard counts,
// all under identical concurrent load (Q2 queries).
func Ablations(cfg Config, clients int, w io.Writer) *AblationReport {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.001, cfg.Seed+7), cfg.Queries)
	rep := &AblationReport{
		Clients:   clients,
		Total:     map[string]time.Duration{},
		Conflicts: map[string]int64{},
	}
	variants := []struct {
		name string
		mk   func() engine.Engine
	}{
		{"crack/piece/middle-first", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, Scheduling: latch.MiddleFirst}))
		}},
		{"crack/piece/fifo", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, Scheduling: latch.FIFO}))
		}},
		{"crack/serial-bounds", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece}))
		}},
		{"crack/parallel-bounds", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, ParallelBounds: true}))
		}},
		{"crack/layout-split", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, Layout: cracker.LayoutSplit}))
		}},
		{"crack/layout-pairs", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, Layout: cracker.LayoutPairs}))
		}},
		{"crack/wait", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, OnConflict: crackindex.Wait}))
		}},
		{"crack/skip(avoidance)", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, OnConflict: crackindex.Skip}))
		}},
		{"crack/group-cracking", func() engine.Engine {
			return crack(crackindex.New(d.Values, crackindex.Options{
				Latching: crackindex.LatchPiece, GroupCracking: true}))
		}},
		{"amerge", func() engine.Engine {
			return amerge.New(d.Values, amerge.Options{})
		}},
		{"amerge/budget-4096(lazy)", func() engine.Engine {
			return amerge.New(d.Values, amerge.Options{MergeBudget: 4096})
		}},
		{"hybrid", func() engine.Engine {
			return hybrid.New(d.Values, hybrid.Options{})
		}},
		{"sharded/P=2", shardedVariant(d, 2, cfg.Seed)},
		{"sharded/P=4", shardedVariant(d, 4, cfg.Seed)},
		{"sharded/P=8", shardedVariant(d, 8, cfg.Seed)},
	}
	for _, v := range variants {
		run := harness.Execute(v.mk(), qs, clients)
		rep.Total[v.name] = run.Elapsed
		rep.Conflicts[v.name] = run.Series.TotalConflicts()
		rep.Order = append(rep.Order, v.name)
	}
	if w != nil {
		t := &metrics.Table{Header: []string{"variant", "total time", "conflicts"}}
		for _, name := range rep.Order {
			t.Add(name, metrics.FormatDuration(rep.Total[name]), fmt.Sprint(rep.Conflicts[name]))
		}
		fmt.Fprintf(w, "Ablations: %d sum queries (sel 0.1%%), %d clients, %d rows\n%s\n",
			cfg.Queries, clients, cfg.Rows, t)
	}
	return rep
}
