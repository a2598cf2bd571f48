// Package amerge implements adaptive merging (paper §2, §4): the
// incremental-external-merge-sort flavour of adaptive indexing, built
// on a partitioned B-tree (internal/pbtree).
//
// Life cycle, following Figure 3:
//
//   - The first query with a predicate on the column creates sorted
//     runs: the column is cut into chunks of RunSize values, each chunk
//     is sorted in memory, and the runs are bulk-loaded as partitions
//     1..R of a single partitioned B-tree.
//   - Each subsequent query applies at most one additional merge step
//     to each record in its requested key range: qualifying records are
//     extracted from the initial partitions (an index probe per run —
//     the runs are sorted) and inserted into the "final" partition 0.
//     Records in other key ranges stay where they are.
//   - Once a key range has been fully merged, queries on it are pure
//     partition-0 lookups; the merged-range set tracks this and serves
//     covered queries from an immutable snapshot without any latching —
//     a limited form of multi-version concurrency control with "shared
//     access to the old pages" (§4.3).
//
// Concurrency control (§4.3, §3.3):
//
//   - Each merge step runs as an instantly-committed system
//     transaction under the index's write latch; its structural effect
//     is logged (optionally) through the structural WAL.
//   - Merge steps are optional: with OnConflict == Skip a query that
//     cannot take the write latch immediately answers from read-latched
//     scans and forgoes merging (conflict avoidance).
//   - A merge step stops after MergeBudget records (early
//     termination); the partitioned B-tree is a valid, searchable index
//     at every intermediate state, so the query still answers correctly
//     from the leftovers in the runs.
package amerge

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/latch"
	"adaptix/internal/pbtree"
	"adaptix/internal/ranges"
	"adaptix/internal/txn"
	"adaptix/internal/wal"
)

// finalPart is the id of the final (fully merged) partition. Runs use
// ids 1..R, so partition 0 sorts first in the tree.
const finalPart int32 = 0

// ConflictPolicy mirrors crackindex's policy for the optional merge
// work.
type ConflictPolicy int

const (
	// Wait blocks on the index write latch before merging.
	Wait ConflictPolicy = iota
	// Skip forgoes merging when the latch is contended.
	Skip
)

// Options configures an adaptive-merging index.
type Options struct {
	// RunSize is the number of values sorted per initial run
	// (modelling the memory available for run generation, §4.2).
	// Default 1 << 16.
	RunSize int
	// MergeBudget caps the records moved per query (0 = unlimited).
	// A small budget is the "lazy" strategy of §7; the budget also
	// exercises early termination.
	MergeBudget int
	// OnConflict selects waiting versus conflict avoidance.
	OnConflict ConflictPolicy
	// Log, when non-nil, receives structural records (run creation,
	// merge steps) — never index contents (§4.2).
	Log *wal.Log
	// TxnMgr, when non-nil, wraps each merge step in an instantly
	// committed system transaction.
	TxnMgr *txn.Manager
}

// Index is an adaptive-merging index over one column.
type Index struct {
	opts Options
	base []int64

	lt *latch.Latch // index latch: W = merge step / init, R = multi-source read

	initOnce atomic.Bool
	tree     *pbtree.Tree
	numRuns  int

	// merged tracks fully merged key ranges; snap is the immutable
	// sorted snapshot of partition 0, rebuilt after each merge step.
	// Covered queries read snap latch-free (MVCC read path).
	mu     sync.Mutex // guards merged + snapshot swap
	merged *ranges.Set
	snap   atomic.Pointer[snapshot]

	// Stats.
	mergeSteps   atomic.Int64
	movedRecords atomic.Int64
	skipped      atomic.Int64
	snapshotHits atomic.Int64
}

// snapshot is an immutable sorted copy of the final partition's keys
// plus the merged-range set it is consistent with. The prefix-sum
// array is built lazily, once per snapshot version, on the first
// covered sum query (count queries never need it).
type snapshot struct {
	keys    []int64
	covered *ranges.Set

	prefixOnce sync.Once
	prefix     []int64 // prefix[i] = sum of keys[:i]
}

func (s *snapshot) ensurePrefix() {
	s.prefixOnce.Do(func() {
		p := make([]int64, len(s.keys)+1)
		for i, k := range s.keys {
			p[i+1] = p[i] + k
		}
		s.prefix = p
	})
}

// New creates an adaptive-merging index over base. Runs are not built
// until the first query (index initialization is a query side effect).
func New(base []int64, opts Options) *Index {
	if opts.RunSize <= 0 {
		opts.RunSize = 1 << 16
	}
	ix := &Index{
		opts:   opts,
		base:   base,
		lt:     latch.New(latch.MiddleFirst),
		merged: &ranges.Set{},
	}
	ix.snap.Store(&snapshot{covered: &ranges.Set{}})
	return ix
}

// Name implements engine.Engine.
func (ix *Index) Name() string { return "amerge" }

// NumRuns returns the number of initial runs created (0 before
// initialization).
func (ix *Index) NumRuns() int { return ix.numRuns }

// Tree exposes the underlying partitioned B-tree (read-only use).
func (ix *Index) Tree() *pbtree.Tree { return ix.tree }

// MergeSteps returns the number of committed merge steps.
func (ix *Index) MergeSteps() int64 { return ix.mergeSteps.Load() }

// MovedRecords returns the total records moved into the final
// partition.
func (ix *Index) MovedRecords() int64 { return ix.movedRecords.Load() }

// SkippedMerges returns how many optional merge steps were forgone.
func (ix *Index) SkippedMerges() int64 { return ix.skipped.Load() }

// SnapshotHits returns how many queries were answered latch-free from
// the MVCC snapshot.
func (ix *Index) SnapshotHits() int64 { return ix.snapshotHits.Load() }

// Count implements engine.AggregateSource (Q1).
func (ix *Index) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return ix.query(ctx, lo, hi, false)
}

// Sum implements engine.AggregateSource (Q2).
func (ix *Index) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return ix.query(ctx, lo, hi, true)
}

func (ix *Index) query(ctx context.Context, lo, hi int64, wantSum bool) (int64, crackindex.OpStats, error) {
	var st crackindex.OpStats
	if lo >= hi {
		return 0, st, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, st, err
	}
	if err := ix.ensureInit(ctx, &st); err != nil {
		return 0, st, err
	}

	// MVCC fast path: a fully merged range is immutable in every
	// snapshot at least as new as its merge; read it without latches.
	if s := ix.snap.Load(); s.covered.Covers(lo, hi) {
		ix.snapshotHits.Add(1)
		return s.aggregate(lo, hi, wantSum), st, nil
	}

	// Try to refine: one merge step for this key range.
	acquired := false
	if ix.opts.OnConflict == Skip {
		acquired = ix.lt.TryLock()
		if !acquired {
			st.Conflicts++
			st.Skipped = true
			ix.skipped.Add(1)
		}
	} else {
		w, err := ix.lt.LockCtx(ctx, lo)
		if w > 0 {
			st.Wait += w
			st.Conflicts++
		}
		if err != nil {
			return 0, st, err
		}
		acquired = true
	}

	if acquired {
		start := time.Now()
		ix.mergeStepLocked(lo, hi)
		st.Refine += time.Since(start)
		ix.lt.Downgrade()
	} else {
		w, err := ix.lt.RLockCtx(ctx)
		if w > 0 {
			st.Wait += w
			st.Conflicts++
		}
		if err != nil {
			return 0, st, err
		}
	}

	// Under the read latch: aggregate final partition + run leftovers.
	var count, sum int64
	c, s := ix.tree.AggregateRange(finalPart, lo, hi)
	count, sum = c, s
	for r := 1; r <= ix.numRuns; r++ {
		c, s := ix.tree.AggregateRange(int32(r), lo, hi)
		count += c
		sum += s
	}
	ix.lt.RUnlock()

	if wantSum {
		return sum, st, nil
	}
	return count, st, nil
}

// ensureInit builds the sorted runs on first use, under the write
// latch: concurrent first queries wait, exactly as with full sorting.
// A context error while parked behind the builder abandons the query
// (the build itself, once started, always completes).
func (ix *Index) ensureInit(ctx context.Context, st *crackindex.OpStats) error {
	if ix.initOnce.Load() {
		return nil
	}
	w, err := ix.lt.LockCtx(ctx, 0)
	if err != nil {
		st.Wait += w
		st.Conflicts++
		return err
	}
	if ix.initOnce.Load() {
		ix.lt.Unlock()
		st.Wait += w
		st.Conflicts++
		return nil
	}
	start := time.Now()
	entries := make([]pbtree.Entry, len(ix.base))
	run := 0
	for off := 0; off < len(ix.base); off += ix.opts.RunSize {
		run++
		end := off + ix.opts.RunSize
		if end > len(ix.base) {
			end = len(ix.base)
		}
		chunk := entries[off:end]
		for i := range chunk {
			chunk[i] = pbtree.Entry{Part: int32(run), Key: ix.base[off+i], Row: uint32(off + i)}
		}
		// Sort the run in memory (§2: "produces sorted runs").
		sort.Slice(chunk, func(i, j int) bool { return chunk[i].Less(chunk[j]) })
		ix.logRun(int32(run), len(chunk))
	}
	// Runs are sorted and partition-major, so the concatenation is
	// globally sorted: bulk-load bottom-up.
	ix.tree = pbtree.BulkLoad(entries)
	ix.numRuns = run
	ix.initOnce.Store(true)
	st.Refine += time.Since(start)
	ix.lt.Unlock()
	return nil
}

// mergeStepLocked moves qualifying records from the runs into the
// final partition; caller holds the write latch. The step is wrapped
// in an instantly-committed system transaction and logged
// structurally.
func (ix *Index) mergeStepLocked(lo, hi int64) {
	budget := ix.opts.MergeBudget
	var movedKeys []int64
	exhausted := true
	doStep := func() {
		for r := 1; r <= ix.numRuns; r++ {
			max := 0
			if budget > 0 {
				max = budget - len(movedKeys)
				if max <= 0 {
					exhausted = false
					return
				}
			}
			got := ix.tree.ExtractRange(int32(r), lo, hi, max)
			if len(got) == 0 {
				continue
			}
			for i := range got {
				movedKeys = append(movedKeys, got[i].Key)
				got[i].Part = finalPart
			}
			ix.tree.InsertBatch(got)
			// If the budget cut the extraction short, the run may
			// still hold qualifying records.
			if budget > 0 && len(movedKeys) >= budget {
				if c, _ := ix.tree.AggregateRange(int32(r), lo, hi); c > 0 {
					exhausted = false
				}
			}
		}
	}
	if ix.opts.TxnMgr != nil {
		_ = ix.opts.TxnMgr.RunSystem(func(*txn.Txn) error {
			doStep()
			return nil
		})
	} else {
		doStep()
	}
	moved := len(movedKeys)
	if moved > 0 {
		ix.mergeSteps.Add(1)
		ix.movedRecords.Add(int64(moved))
		ix.logMerge(lo, hi, moved)
	}
	if moved == 0 && !exhausted {
		return
	}
	// Publish the new state: record coverage when the range is fully
	// merged and fold any moved keys into the immutable snapshot (the
	// commit of the "new pages", §4.3). When nothing moved, the old
	// key arrays are reused — only the coverage changes.
	ix.mu.Lock()
	if exhausted {
		ix.merged.Add(lo, hi)
	}
	old := ix.snap.Load()
	keys := old.keys
	if moved > 0 {
		sort.Slice(movedKeys, func(i, j int) bool { return movedKeys[i] < movedKeys[j] })
		keys = mergeSorted(old.keys, movedKeys)
	}
	ix.snap.Store(&snapshot{keys: keys, covered: ix.merged.Clone()})
	ix.mu.Unlock()
}

// mergeSorted merges two sorted slices into a new sorted slice.
func mergeSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// aggregate answers a covered query from the snapshot by binary
// search and prefix sums.
func (s *snapshot) aggregate(lo, hi int64, wantSum bool) int64 {
	a := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= lo })
	b := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= hi })
	if wantSum {
		s.ensurePrefix()
		return s.prefix[b] - s.prefix[a]
	}
	return int64(b - a)
}

func (ix *Index) logRun(part int32, count int) {
	if ix.opts.Log == nil {
		return
	}
	_, _ = ix.opts.Log.Append(wal.Record{
		Kind: wal.RunCreated, Object: "amerge", A: int64(part), B: int64(count),
	})
}

func (ix *Index) logMerge(lo, hi int64, moved int) {
	if ix.opts.Log == nil {
		return
	}
	_, _ = ix.opts.Log.Append(wal.Record{
		Kind: wal.MergeStep, Object: "amerge", A: lo, B: hi, C: int64(moved),
	})
}
