// Package baseline implements the two non-adaptive comparison points
// of the paper's §6.1:
//
//   - Scan: the default case — every query scans the whole column with
//     a predicate; no indexing mechanism, no state, no concurrency
//     control needed ("purely read-only data access").
//   - FullSort: the traditional "very active" indexing approach — the
//     first query builds the complete index (sorts a copy of the
//     column) before answering; all later queries use binary search.
//     The build runs under a write latch so concurrent first queries
//     wait, exactly once.
//
// Both engines are safe for concurrent use. Queries honour their
// context: a cancelled context fails fast, and the long full scans
// check for cancellation periodically so a deadline bounds them too.
package baseline

import (
	"context"
	"sort"
	"sync"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/kernel"
)

// scanCheckEvery is the number of values scanned between context
// checks: frequent enough that a deadline bounds a scan to a fraction
// of a millisecond of overshoot, rare enough to cost nothing.
const scanCheckEvery = 1 << 16

// scanVals answers one query by a predicate scan of vals with the
// branch-free chunked kernels, one scanCheckEvery-sized block at a
// time so the context check stays off the per-value path. A scan
// refines nothing and waits on nothing: its cost record stays zero.
func scanVals(ctx context.Context, vals []int64, lo, hi int64, wantSum bool) (int64, crackindex.OpStats, error) {
	if err := ctx.Err(); err != nil {
		return 0, crackindex.OpStats{}, err
	}
	var res int64
	done := ctx.Done()
	for len(vals) > 0 {
		blk := vals
		if len(blk) > scanCheckEvery {
			blk = blk[:scanCheckEvery]
		}
		if wantSum {
			res += kernel.SumRange(blk, lo, hi)
		} else {
			res += kernel.CountRange(blk, lo, hi)
		}
		vals = vals[len(blk):]
		if done != nil && len(vals) > 0 {
			if err := ctx.Err(); err != nil {
				return 0, crackindex.OpStats{}, err
			}
		}
	}
	return res, crackindex.OpStats{}, nil
}

// Scan answers every query by a full predicate scan of the column.
type Scan struct {
	vals []int64
}

// NewScan returns a scan engine over vals (not copied; treated
// read-only).
func NewScan(vals []int64) *Scan { return &Scan{vals: vals} }

// Name implements engine.Engine.
func (s *Scan) Name() string { return "scan" }

// Count implements engine.AggregateSource by a full scan.
func (s *Scan) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return scanVals(ctx, s.vals, lo, hi, false)
}

// Sum implements engine.AggregateSource by a full scan.
func (s *Scan) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return scanVals(ctx, s.vals, lo, hi, true)
}

// Mutable is a scan engine whose contents can change: one mutex, one
// slice, full predicate scans. It is deliberately the dumbest possible
// implementation — the trivially correct comparison point the write-path
// agreement tests measure every adaptive engine against.
type Mutable struct {
	mu   sync.RWMutex
	vals []int64
}

// NewMutable returns a mutable scan engine over a copy of vals.
func NewMutable(vals []int64) *Mutable {
	return &Mutable{vals: append([]int64(nil), vals...)}
}

// Name implements engine.Engine.
func (m *Mutable) Name() string { return "scan-mutable" }

// Insert adds one instance of v.
func (m *Mutable) Insert(v int64) {
	m.mu.Lock()
	m.vals = append(m.vals, v)
	m.mu.Unlock()
}

// DeleteValue removes one instance of v, reporting whether one existed.
func (m *Mutable) DeleteValue(v int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, x := range m.vals {
		if x == v {
			m.vals[i] = m.vals[len(m.vals)-1]
			m.vals = m.vals[:len(m.vals)-1]
			return true
		}
	}
	return false
}

// Count implements engine.AggregateSource by a locked full scan.
func (m *Mutable) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return scanVals(ctx, m.vals, lo, hi, false)
}

// Sum implements engine.AggregateSource by a locked full scan.
func (m *Mutable) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return scanVals(ctx, m.vals, lo, hi, true)
}

// FullSort sorts a copy of the column on first access, then answers
// queries by binary search over the sorted array.
type FullSort struct {
	base []int64

	mu     sync.RWMutex
	sorted []int64
}

// NewFullSort returns a full-index engine over vals (not copied until
// the first query builds the index).
func NewFullSort(vals []int64) *FullSort { return &FullSort{base: vals} }

// Name implements engine.Engine.
func (f *FullSort) Name() string { return "sort" }

// ensure builds the sorted copy exactly once; the builder charges the
// sort to its refinement time, concurrent callers charge wait time.
func (f *FullSort) ensure(st *crackindex.OpStats) []int64 {
	f.mu.RLock()
	s := f.sorted
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	start := time.Now()
	f.mu.Lock()
	if f.sorted == nil {
		s = make([]int64, len(f.base))
		copy(s, f.base)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		f.sorted = s
		f.mu.Unlock()
		st.Refine = time.Since(start)
		return s
	}
	s = f.sorted
	f.mu.Unlock()
	st.Wait = time.Since(start)
	st.Conflicts = 1
	return s
}

// Count implements engine.AggregateSource by two binary searches.
func (f *FullSort) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	var st crackindex.OpStats
	if err := ctx.Err(); err != nil {
		return 0, st, err
	}
	s := f.ensure(&st)
	a := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	b := sort.Search(len(s), func(i int) bool { return s[i] >= hi })
	return int64(b - a), st, nil
}

// Sum implements engine.AggregateSource by binary search plus a scan of
// the qualifying sorted range.
func (f *FullSort) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	var st crackindex.OpStats
	if err := ctx.Err(); err != nil {
		return 0, st, err
	}
	s := f.ensure(&st)
	a := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	b := sort.Search(len(s), func(i int) bool { return s[i] >= hi })
	return kernel.Sum(s[a:b]), st, nil
}
