// Package sideways implements sideways cracking — adaptive indexing
// for multi-column plans (Idreos et al., SIGMOD 2009; reference [22]
// of the paper). The paper's §5 states that its concurrency-control
// techniques "apply as is to the rest of the column-store designs for
// adaptive indexing ... because [they] maintain the same underlying
// philosophy and follow the same column-store model"; this package
// demonstrates that claim.
//
// A cracker map M(A,B) is an auxiliary structure of aligned (A, B)
// pairs, physically reorganized on A as a side effect of queries with
// predicates on A that project B. After cracking, the qualifying B
// values are contiguous, so plans of the form
//
//	select sum(B) from R where lo <= A < hi
//
// need no positional fetch against the base columns at all — the map
// self-organizes into exactly the access pattern the workload needs.
//
// Concurrency control uses the paper's column-latch protocol (§5.3):
// the crack select takes the map's write latch, then downgrades to a
// shared latch for the aggregation; under conflict avoidance the crack
// is optional and the query falls back to a read-latched predicate
// scan. Maps are tracked in a registry guarded by a global latch, like
// the cracker-index registry.
package sideways

import (
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/directory"
	"adaptix/internal/latch"
)

// ConflictPolicy selects waiting versus conflict avoidance for the
// optional crack.
type ConflictPolicy int

const (
	// Wait blocks on the map's write latch.
	Wait ConflictPolicy = iota
	// Skip forgoes cracking when the latch is contended.
	Skip
)

// Options configures a cracker map.
type Options struct {
	// OnConflict selects waiting versus conflict avoidance.
	OnConflict ConflictPolicy
}

// Map is one cracker map M(head, tail).
type Map struct {
	opts Options
	hdr  []int64 // base head column (not copied until first query)
	tlr  []int64 // base tail column

	lt       *latch.Latch
	initDone atomic.Bool

	// Structure: guarded by the write latch (mutations) and readable
	// under either latch mode; toc maps boundary value -> position.
	arr *cracker.DualArray
	toc directory.Dir

	cracks atomic.Int64
}

// NewMap creates a cracker map over aligned head/tail columns. The
// map materializes lazily on the first query (self-organization is a
// query side effect).
func NewMap(head, tail []int64, opts Options) *Map {
	if len(head) != len(tail) {
		panic("sideways: misaligned columns")
	}
	return &Map{
		opts: opts,
		hdr:  head,
		tlr:  tail,
		lt:   latch.New(latch.MiddleFirst),
	}
}

// Cracks returns the number of crack actions performed.
func (m *Map) Cracks() int64 { return m.cracks.Load() }

// Boundaries returns the number of crack boundaries in the map.
func (m *Map) Boundaries() int {
	m.lt.RLock()
	defer m.lt.RUnlock()
	return m.toc.Len()
}

// Initialized reports whether the map has been materialized.
func (m *Map) Initialized() bool { return m.initDone.Load() }

// ensureInit materializes the (head, tail) pairs under the write
// latch, charging the copy to the first query's crack time.
func (m *Map) ensureInit(st *crackindex.OpStats) {
	if m.initDone.Load() {
		return
	}
	w := m.lt.Lock(0)
	if m.initDone.Load() {
		m.lt.Unlock()
		st.Wait += w
		return
	}
	start := time.Now()
	m.arr = cracker.NewDual(m.hdr, m.tlr)
	m.initDone.Store(true)
	st.Refine += time.Since(start)
	m.lt.Unlock()
}

// crackBoundLocked ensures a boundary at v and counts the rows it
// partitioned into st.Touched; caller holds the write latch.
func (m *Map) crackBoundLocked(v int64, st *crackindex.OpStats) int {
	lo, hi, exact := m.toc.Span(v, m.arr.Len())
	if exact {
		return lo
	}
	pos := m.arr.CrackInTwo(lo, hi, v)
	m.toc.Insert(v, pos, 0)
	m.cracks.Add(1)
	st.Touched += int64(hi - lo)
	return pos
}

// SumTargetWhere evaluates select sum(tail) where lo <= head < hi.
// The map is cracked on (lo, hi) as a side effect; the aggregation
// runs under a downgraded (shared) latch over the now-contiguous
// qualifying pairs.
func (m *Map) SumTargetWhere(lo, hi int64) (int64, crackindex.OpStats) {
	var st crackindex.OpStats
	if lo >= hi {
		return 0, st
	}
	m.ensureInit(&st)

	acquired := true
	if m.opts.OnConflict == Skip {
		acquired = m.lt.TryLock()
	} else {
		st.Wait += m.lt.Lock(lo)
	}
	if !acquired {
		// Conflict avoidance: read-latched predicate scan between the
		// nearest existing boundaries; no refinement.
		st.Skipped = true
		st.Wait += m.lt.RLock()
		a, _, _ := m.toc.Span(lo, m.arr.Len())
		_, b, _ := m.toc.Span(hi, m.arr.Len())
		s := m.arr.ScanSumTail(a, b, lo, hi)
		m.lt.RUnlock()
		st.Touched += int64(b - a)
		return s, st
	}

	start := time.Now()
	posLo := m.crackBoundLocked(lo, &st)
	posHi := m.crackBoundLocked(hi, &st)
	st.Refine += time.Since(start)
	// Downgrade W -> R (§3.3) and aggregate the contiguous tails.
	m.lt.Downgrade()
	s := m.arr.SumTail(posLo, posHi)
	m.lt.RUnlock()
	st.Touched += int64(posHi - posLo)
	return s, st
}

// CountWhere evaluates select count(*) where lo <= head < hi via the
// map (boundary positions are permanent once cracked).
func (m *Map) CountWhere(lo, hi int64) (int64, crackindex.OpStats) {
	var st crackindex.OpStats
	if lo >= hi {
		return 0, st
	}
	m.ensureInit(&st)
	acquired := true
	if m.opts.OnConflict == Skip {
		acquired = m.lt.TryLock()
	} else {
		st.Wait += m.lt.Lock(lo)
	}
	if !acquired {
		st.Skipped = true
		st.Wait += m.lt.RLock()
		a, _, _ := m.toc.Span(lo, m.arr.Len())
		_, b, _ := m.toc.Span(hi, m.arr.Len())
		n := m.arr.ScanCountHead(a, b, lo, hi)
		m.lt.RUnlock()
		st.Touched += int64(b - a)
		return n, st
	}
	start := time.Now()
	posLo := m.crackBoundLocked(lo, &st)
	posHi := m.crackBoundLocked(hi, &st)
	st.Refine += time.Since(start)
	m.lt.Unlock()
	return int64(posHi - posLo), st
}

// Registry tracks cracker maps per (selection, target) column pair,
// mirroring the paper's global structure of existing cracker indexes.
type Registry struct {
	mu   sync.RWMutex
	maps map[[2]string]*Map
}

// NewRegistry returns an empty map registry.
func NewRegistry() *Registry {
	return &Registry{maps: make(map[[2]string]*Map)}
}

// GetOrCreate returns the map for (selCol, tgtCol), creating it over
// the given columns on first use.
func (r *Registry) GetOrCreate(selCol, tgtCol string, head, tail []int64, opts Options) *Map {
	key := [2]string{selCol, tgtCol}
	r.mu.RLock()
	m, ok := r.maps[key]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.maps[key]; ok {
		return m
	}
	m = NewMap(head, tail, opts)
	r.maps[key] = m
	return m
}

// Len returns the number of registered maps.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.maps)
}
