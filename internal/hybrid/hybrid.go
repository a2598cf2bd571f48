// Package hybrid implements the hybrid "crack-sort" adaptive indexing
// algorithm of the paper's §2 (Figure 4) and [23]: it combines
// database cracking's cheap initialization with adaptive merging's
// fast convergence.
//
// Life cycle, following Figure 4:
//
//   - Data is loaded into equally-sized initial partitions WITHOUT
//     sorting (unlike adaptive merging's sorted runs — this is the
//     cheap first touch).
//   - Each query cracks every initial partition on its range bounds
//     (a quicksort-style partitioning step per bound, not a sort) and
//     moves the qualifying values into a fully sorted "final"
//     partition.
//   - Once a key range is in the final partition, the initial
//     partitions are never accessed again for that range ("effort that
//     refines an initial partition is much less likely to pay off than
//     the same effort invested in refining a final partition").
//
// Concurrency follows the same scheme as package amerge: an index
// latch whose write side covers the crack-and-move step (optional,
// skippable under contention) and whose read side covers mixed
// final+initial reads; fully covered ranges are served latch-free from
// an immutable snapshot.
package hybrid

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/directory"
	"adaptix/internal/latch"
	"adaptix/internal/ranges"
)

// ConflictPolicy selects waiting versus conflict avoidance for the
// optional crack-and-move refinement.
type ConflictPolicy int

const (
	// Wait blocks on the index write latch.
	Wait ConflictPolicy = iota
	// Skip forgoes refinement when the latch is contended.
	Skip
)

// Options configures a hybrid crack-sort index.
type Options struct {
	// PartitionSize is the number of values per initial partition.
	// Default 1 << 16.
	PartitionSize int
	// Layout selects the cracker-array layout of the initial
	// partitions.
	Layout cracker.Layout
	// OnConflict selects waiting versus conflict avoidance.
	OnConflict ConflictPolicy
}

// part is one initial partition: a cracker array with its own
// table of contents (boundary value -> local position).
type part struct {
	arr *cracker.Array
	toc directory.Dir
}

// crackBound ensures a local crack boundary at v and returns its
// position within the partition. Single-threaded use only (the index
// write latch serializes refinement).
func (p *part) crackBound(v int64) int {
	lo, hi, exact := p.toc.Span(v, p.arr.Len())
	if exact {
		return lo
	}
	pos := p.arr.CrackInTwo(lo, hi, v)
	p.toc.Insert(v, pos, 0)
	return pos
}

// Index is a hybrid crack-sort index over one column.
type Index struct {
	opts Options
	base []int64

	lt *latch.Latch

	initOnce atomic.Bool
	parts    []*part

	// final holds the sorted, fully merged values; covered tracks the
	// key ranges it serves. snap is the immutable read snapshot.
	mu      sync.Mutex
	final   []int64
	covered *ranges.Set
	snap    atomic.Pointer[snapshot]

	extensions atomic.Int64
	skipped    atomic.Int64
	snapHits   atomic.Int64
}

type snapshot struct {
	keys    []int64
	covered *ranges.Set

	prefixOnce sync.Once
	prefix     []int64 // built lazily on the first covered sum
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

// New creates a hybrid index over base; initial partitions are not
// built until the first query.
func New(base []int64, opts Options) *Index {
	if opts.PartitionSize <= 0 {
		opts.PartitionSize = 1 << 16
	}
	ix := &Index{
		opts:    opts,
		base:    base,
		lt:      latch.New(latch.MiddleFirst),
		covered: &ranges.Set{},
	}
	ix.snap.Store(&snapshot{covered: &ranges.Set{}})
	return ix
}

// Name implements engine.Engine.
func (ix *Index) Name() string { return "hybrid" }

// NumPartitions returns the number of initial partitions (0 before
// initialization).
func (ix *Index) NumPartitions() int { return len(ix.parts) }

// FinalSize returns the number of values in the final partition.
func (ix *Index) FinalSize() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.final)
}

// PartitionValues returns a copy of initial partition i's values in
// their current physical (cracked) order. For inspection and
// visualization.
func (ix *Index) PartitionValues(i int) []int64 {
	return ix.parts[i].arr.Values()
}

// FinalValues returns a copy of the final partition's sorted values.
func (ix *Index) FinalValues() []int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]int64, len(ix.final))
	copy(out, ix.final)
	return out
}

// Extensions returns how many crack-and-move steps extended the final
// partition.
func (ix *Index) Extensions() int64 { return ix.extensions.Load() }

// SkippedMoves returns how many optional refinements were forgone.
func (ix *Index) SkippedMoves() int64 { return ix.skipped.Load() }

// SnapshotHits returns how many queries were served latch-free.
func (ix *Index) SnapshotHits() int64 { return ix.snapHits.Load() }

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

	if s := ix.snap.Load(); s.covered.Covers(lo, hi) {
		ix.snapHits.Add(1)
		return s.aggregate(lo, hi, wantSum), st, nil
	}

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
		ix.extendLocked(lo, hi)
		st.Refine += time.Since(start)
		ix.lt.Downgrade()
		// The range is now fully in the final partition.
		v := ix.snap.Load().aggregate(lo, hi, wantSum)
		ix.lt.RUnlock()
		return v, st, nil
	}

	// Refinement skipped: answer from the final partition plus
	// predicate scans of the initial partitions over the uncovered
	// gaps, all under the read latch.
	w, err := ix.lt.RLockCtx(ctx)
	if w > 0 {
		st.Wait += w
		st.Conflicts++
	}
	if err != nil {
		return 0, st, err
	}
	s := ix.snap.Load()
	var total int64
	gaps := s.covered.Gaps(lo, hi)
	// Covered portion from the snapshot, gap portions from the raw
	// partitions.
	covered := [][2]int64{}
	cur := lo
	for _, g := range gaps {
		if g[0] > cur {
			covered = append(covered, [2]int64{cur, g[0]})
		}
		cur = g[1]
	}
	if cur < hi {
		covered = append(covered, [2]int64{cur, hi})
	}
	for _, c := range covered {
		total += s.aggregate(c[0], c[1], wantSum)
	}
	for _, g := range gaps {
		for _, p := range ix.parts {
			if wantSum {
				total += p.arr.ScanSum(0, p.arr.Len(), g[0], g[1])
			} else {
				total += p.arr.ScanCount(0, p.arr.Len(), g[0], g[1])
			}
		}
	}
	ix.lt.RUnlock()
	return total, st, nil
}

// ensureInit builds the unsorted initial partitions on first use.
// Unlike adaptive merging there is no sorting here — this is the cheap
// "first touch" of cracking (Figure 4: "data loaded into initial
// partitions, without sorting"). A context error while parked behind
// the builder abandons the query.
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
	for off := 0; off < len(ix.base); off += ix.opts.PartitionSize {
		end := off + ix.opts.PartitionSize
		if end > len(ix.base) {
			end = len(ix.base)
		}
		ix.parts = append(ix.parts, &part{arr: cracker.New(ix.base[off:end], ix.opts.Layout)})
	}
	ix.initOnce.Store(true)
	st.Refine += time.Since(start)
	ix.lt.Unlock()
	return nil
}

// extendLocked cracks each initial partition on the uncovered gaps of
// [lo, hi), moves the qualifying values into the sorted final
// partition, and publishes a fresh snapshot. Caller holds the write
// latch.
func (ix *Index) extendLocked(lo, hi int64) {
	gaps := ix.covered.Gaps(lo, hi)
	if len(gaps) == 0 {
		return
	}
	var moved []int64
	for _, g := range gaps {
		for _, p := range ix.parts {
			// Crack, don't sort: two partitioning steps per partition.
			a := p.crackBound(g[0])
			b := p.crackBound(g[1])
			for i := a; i < b; i++ {
				moved = append(moved, p.arr.Value(i))
			}
		}
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })

	ix.mu.Lock()
	ix.final = mergeSorted(ix.final, moved)
	ix.covered.Add(lo, hi)
	ix.snap.Store(&snapshot{keys: ix.final, covered: ix.covered.Clone()})
	ix.mu.Unlock()
	if len(moved) > 0 {
		ix.extensions.Add(1)
	}
}

// mergeSorted merges two sorted slices into a new sorted slice.
func mergeSorted(a, b []int64) []int64 {
	if len(b) == 0 {
		return a
	}
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

func (s *snapshot) aggregate(lo, hi int64, wantSum bool) int64 {
	a := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= lo })
	b := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= hi })
	if wantSum {
		s.ensurePrefix()
		return s.prefix[b] - s.prefix[a]
	}
	return int64(b - a)
}
