// Online shard rebalancing: the rebalancer watches per-shard row
// counts — and, with Options.LoadWeight, the per-shard refinement
// traffic — and repairs population and load drift with split and merge
// operations that readers never block on (the shard map swap reuses
// the piece-latch discipline one level up — see
// internal/shard/update.go).
package ingest

import "adaptix/internal/shard"

// Rebalance runs one split/merge pass over the current shard map and
// returns the number of splits and merges performed.
//
// A shard whose weight exceeds SplitFactor times the mean weight (and
// whose rows exceed MinShardRows) is split at its median; two adjacent
// shards whose combined weight falls below MergeFraction times the
// mean are merged. With LoadWeight zero a shard's weight is its row
// count; otherwise the weight is load-aware — rows scaled by the
// shard's share of the column's observed refinement traffic (the
// Cracks and Conflicts counters in shard.ShardLoad) — so a hot shard
// splits before it dominates a latch domain and two shards still
// taking fire are not merged back together. The thresholds are
// hysteretic by construction — a fresh split yields halves of roughly
// mean weight, far below the split threshold — so the rebalancer
// cannot oscillate. Neither operation logs anything: a shard map is
// structure, captured by the next checkpoint and re-derived after a
// crash.
func (g *Coordinator) Rebalance() (splits, merges int) {
	stats := g.col.Loads()
	if len(stats) == 0 {
		return 0, 0
	}
	var rows int64
	for _, s := range stats {
		rows += int64(s.Rows)
	}
	meanRows := float64(rows) / float64(len(stats))
	if meanRows < 1 {
		return 0, 0
	}
	weight := g.weights(stats)
	var mean float64
	for _, w := range weight {
		mean += w
	}
	mean /= float64(len(weight))

	// Splits, descending so earlier ordinals stay valid.
	shards := len(stats)
	for i := len(stats) - 1; i >= 0; i-- {
		if shards >= g.opts.MaxShards {
			break
		}
		if stats[i].Rows < g.opts.MinShardRows || weight[i] <= g.opts.SplitFactor*mean {
			continue
		}
		if g.splitShard(i) {
			splits++
			shards++
		}
	}

	// Merges, on a fresh view when splits shifted the ordinals. After
	// a merge at i the pair (i-1, i) is re-examined next iteration with
	// a stale weight for the merged shard; skipping one extra ordinal
	// keeps the pass conservative.
	if splits > 0 {
		stats = g.col.Loads()
		weight = g.weights(stats)
	}
	for i := len(stats) - 2; i >= 0 && len(stats)-merges > 1; i-- {
		if weight[i]+weight[i+1] >= g.opts.MergeFraction*mean {
			continue
		}
		if g.mergeShards(i) {
			merges++
			i--
		}
	}
	return splits, merges
}

// weights maps each shard to its rebalancing weight. With LoadWeight
// w > 0 a shard's row count is scaled by 1 + w*(its refinement
// traffic relative to the column mean), where traffic is the Cracks +
// Conflicts counters of the shard's current index incarnation (they
// reset on every rebuild, so the signal tracks recent heat, not
// lifetime totals). A shard with mean traffic keeps weight rows*(1+w);
// an idle one decays toward its plain row count.
func (g *Coordinator) weights(stats []shard.ShardLoad) []float64 {
	out := make([]float64, len(stats))
	if g.opts.LoadWeight <= 0 {
		for i, s := range stats {
			out[i] = float64(s.Rows)
		}
		return out
	}
	var traffic int64
	for _, s := range stats {
		traffic += s.Cracks + s.Conflicts
	}
	meanTraffic := float64(traffic) / float64(len(stats))
	for i, s := range stats {
		heat := 0.0
		if meanTraffic > 0 {
			heat = float64(s.Cracks+s.Conflicts) / meanTraffic
		}
		out[i] = float64(s.Rows) * (1 + g.opts.LoadWeight*heat)
	}
	return out
}

// splitShard splits shard i at its median.
func (g *Coordinator) splitShard(i int) bool {
	if _, ok := g.col.SplitShard(i); !ok {
		return false
	}
	g.splits.Add(1)
	return true
}

// mergeShards merges shards i and i+1.
func (g *Coordinator) mergeShards(i int) bool {
	if _, ok := g.col.MergeShards(i); !ok {
		return false
	}
	g.merges.Add(1)
	return true
}
