// Online shard rebalancing: the rebalancer watches per-shard row
// counts and repairs population drift with split and merge operations
// that readers never block on (the shard map swap reuses the
// piece-latch discipline one level up — see internal/shard/update.go).
package ingest

// Rebalancing constants.
const (
	// mergeFraction merges two adjacent shards whose combined row count
	// falls below mergeFraction times the mean.
	mergeFraction = 0.5
	// maxShards caps the shard count growth.
	maxShards = 64
)

// Rebalance runs one split/merge pass over the current shard map and
// returns the number of splits and merges performed.
//
// A shard whose row count exceeds SplitFactor times the mean (and
// MinShardRows) is split at its median; two adjacent shards whose
// combined row count falls below mergeFraction times the mean are
// merged. The thresholds are hysteretic by construction — a fresh split
// yields halves of roughly mean size, far below the split threshold —
// so the rebalancer cannot oscillate. Neither operation logs anything:
// a shard map is structure, captured by the next checkpoint and
// re-derived after a crash.
func (g *Coordinator) Rebalance() (splits, merges int) {
	stats := g.col.Loads()
	if len(stats) == 0 {
		return 0, 0
	}
	var rows int
	for _, s := range stats {
		rows += s.Rows
	}
	mean := float64(rows) / float64(len(stats))
	if mean < 1 {
		return 0, 0
	}

	// Splits, descending so earlier ordinals stay valid.
	shards := len(stats)
	for i := len(stats) - 1; i >= 0; i-- {
		if shards >= maxShards {
			break
		}
		if stats[i].Rows < g.opts.MinShardRows || float64(stats[i].Rows) <= g.opts.SplitFactor*mean {
			continue
		}
		if g.splitShard(i) {
			splits++
			shards++
		}
	}

	// Merges, on a fresh view when splits shifted the ordinals. After
	// a merge at i the pair (i-1, i) is re-examined next iteration with
	// a stale row count for the merged shard; skipping one extra ordinal
	// keeps the pass conservative.
	if splits > 0 {
		stats = g.col.Loads()
	}
	for i := len(stats) - 2; i >= 0 && len(stats)-merges > 1; i-- {
		if float64(stats[i].Rows+stats[i+1].Rows) >= mergeFraction*mean {
			continue
		}
		if g.mergeShards(i) {
			merges++
			i--
		}
	}
	return splits, merges
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
