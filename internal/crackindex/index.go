// Package crackindex implements the cracked-column index — selection
// cracking over a column-store array — together with the paper's
// concurrency-control protocols for the index-refining side effects of
// read-only queries (paper §5).
//
// The index consists of (paper §5.2):
//
//   - a cracker array (internal/cracker): a dense auxiliary copy of the
//     column, continuously reorganized in place;
//   - an AVL tree (internal/avltree) as table of contents, mapping
//     crack boundary values to pieces of the array;
//   - a doubly-linked list of piece descriptors, each owning a
//     short-term read/write latch and a sorted waiter queue
//     (internal/latch).
//
// Three concurrency-control modes are provided (paper §5.3):
//
//   - LatchNone: no concurrency control at all; only safe under
//     single-threaded access. Used to measure the administrative
//     overhead of the CC machinery (Figure 13).
//   - LatchColumn: one read/write latch per column. Cracking takes the
//     write latch, aggregation the read latch.
//   - LatchPiece: one read/write latch per piece. Two queries can crack
//     different pieces of the same column concurrently; cracking and
//     aggregation on different pieces also proceed concurrently.
//
// Refinement is optional: with OnConflict == Skip, a query that cannot
// acquire a write latch immediately forgoes cracking and answers from a
// read-latched scan of the unrefined piece(s) (conflict avoidance,
// paper §3.3).
package crackindex

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/avltree"
	"adaptix/internal/cracker"
	"adaptix/internal/latch"
	"adaptix/internal/metrics"
)

// LatchMode selects the concurrency-control granularity (paper §5.3).
type LatchMode int

const (
	// LatchPiece uses one latch per array piece (finest granularity).
	LatchPiece LatchMode = iota
	// LatchColumn uses a single latch for the whole column.
	LatchColumn
	// LatchNone disables concurrency control (single-threaded only).
	LatchNone
)

// String returns the mode's display name.
func (m LatchMode) String() string {
	switch m {
	case LatchPiece:
		return "piece"
	case LatchColumn:
		return "column"
	default:
		return "none"
	}
}

// ConflictPolicy selects behaviour when a write latch is contended.
type ConflictPolicy int

const (
	// Wait blocks until the latch is granted (default).
	Wait ConflictPolicy = iota
	// Skip forgoes the optional index refinement on contention and
	// answers the query from a scan instead (conflict avoidance).
	Skip
)

// String returns the policy's display name.
func (p ConflictPolicy) String() string {
	if p == Skip {
		return "skip"
	}
	return "wait"
}

// Sentinel value bounds of the head and tail pieces.
const (
	minKey = math.MinInt64
	maxKey = math.MaxInt64
)

// Options configures an Index.
type Options struct {
	// Layout selects the cracker-array representation (Figure 7).
	Layout cracker.Layout
	// Latching selects the CC granularity.
	Latching LatchMode
	// Scheduling selects the order in which queued cracks are granted
	// a piece's write latch (middle-first per paper §5.3, or FIFO).
	Scheduling latch.Policy
	// OnConflict selects waiting versus conflict avoidance.
	OnConflict ConflictPolicy
	// ParallelBounds cracks the two bounds of a range predicate
	// concurrently when they fall into different pieces (§5.3).
	ParallelBounds bool
	// GroupCracking enables the "dynamic algorithms" extension the
	// paper sketches in §7: a query that holds a piece's write latch
	// also cracks for the bounds of all queries queued on that piece,
	// in one multi-pivot pass. Waiters then find their boundary
	// already in place when granted the latch.
	GroupCracking bool
	// Tracer, when non-nil, receives latch/crack trace events
	// (used by the Figure 8 walk-through example).
	Tracer func(TraceEvent)
	// LockProbe, when non-nil, is consulted before refinement: if it
	// reports a conflicting user-transaction lock on this column, the
	// refinement is skipped (system transactions must respect user
	// locks but never acquire their own, paper §3.3/§3.4).
	LockProbe func() bool
	// Obs, when non-nil, receives latch-wait observations from every
	// latch the index creates (the column latch and each piece latch,
	// including pieces born from future cracks). Only blocked
	// acquisitions are reported, so the uncontended path pays nothing.
	Obs *metrics.Observer
}

// piece is one contiguous segment of the cracker array holding values
// in [loVal, hiVal). prev/next form the ordered piece list. Each piece
// owns its latch (used in LatchPiece mode).
//
// loSum, the wrapping sum of all values at positions < lo, belongs to
// the piece's starting boundary, not to its contents: a crack permutes
// rows inside one piece only, so nothing below an existing boundary ever
// changes and the sum is filled once, where the boundary is born.
//
// Synchronization discipline (race-freedom relies on it):
//   - lo, loVal and loSum are immutable after the piece is published;
//   - hi, hiVal and next are mutated only while holding BOTH the
//     piece's write latch and the structure latch mu, so holding
//     either one is sufficient to read them;
//   - prev is mutated and read only under mu;
//   - splits keep the existing piece as the LEFT part, so a piece
//     never loses its starting boundary.
type piece struct {
	lo, hi       int   // array positions [lo, hi)
	loVal, hiVal int64 // value bounds [loVal, hiVal)
	loSum        int64 // sum of the values at positions [0, lo)
	prev, next   *piece
	latch        *latch.Latch
}

// Stats aggregates index-wide counters.
type Stats struct {
	// Cracks counts physical reorganization actions (a crack-in-three
	// counts once).
	Cracks metrics.Counter
	// Boundaries counts crack boundaries inserted into the AVL tree.
	Boundaries metrics.Counter
	// Conflicts counts latch acquisitions that blocked or failed.
	Conflicts metrics.Counter
	// Redeterminations counts bound re-determinations after wake-up
	// (the piece had been split while the query waited, Figure 10).
	Redeterminations metrics.Counter
	// Skipped counts refinements forgone under conflict avoidance.
	Skipped metrics.Counter
	// GroupCracks counts multi-pivot group cracks (§7 extension).
	GroupCracks metrics.Counter
	// GroupedBounds counts waiter bounds satisfied by group cracks.
	GroupedBounds metrics.Counter
	// AuxCuts counts the boundaries cracks added at sampled quantiles
	// of large pieces, beyond the bounds any query asked for (the
	// robust-cracking policy, see refine).
	AuxCuts metrics.Counter
	// WaitTime accumulates latch wait time.
	WaitTime metrics.DurationCounter
	// CrackTime accumulates physical reorganization time.
	CrackTime metrics.DurationCounter
	// InitTime records the one-off index initialization (copying the
	// base column into the cracker array).
	InitTime metrics.DurationCounter
}

// OpStats is the per-operation cost breakdown returned by Count / Sum.
type OpStats struct {
	// Wait is time spent blocked on latches.
	Wait time.Duration
	// Crack is time spent physically refining the index.
	Crack time.Duration
	// Critical is the critical-path time of a fan-out execution: the
	// slowest sub-query's elapsed time (shard.Column sets it; Wait and
	// Crack sum total work across all sub-queries instead). Zero for
	// single-domain operations.
	Critical time.Duration
	// Conflicts counts latch acquisitions that were not granted
	// immediately.
	Conflicts int64
	// Epochs is the number of differential epoch files consulted to
	// assemble the answer (shard.Column sets it: the deepest per-shard
	// chain the query's snapshot read traversed; see internal/epoch).
	// Zero for a plain cracked column.
	Epochs int
	// Touched counts the rows the operation physically visited:
	// positions partitioned by cracks plus positions scanned to answer
	// the aggregate. This is the live form of the paper's per-query
	// cost. Under piece latches it decays to 0 as the index converges:
	// once both bounds of a Count or Sum are boundaries, the answer is
	// read off them (positions, prefix sums). Only the column-latch and
	// no-latch baselines keep scanning the result range of a Sum.
	Touched int64
	// Skipped reports that refinement was forgone due to contention.
	Skipped bool
}

func (o *OpStats) addWait(w time.Duration) {
	if w > 0 {
		o.Wait += w
		o.Conflicts++
	}
}

// Index is a cracked column: the primary adaptive-indexing structure.
type Index struct {
	opts Options
	base []int64 // base column, copied lazily on first query; nil when the index owns its array (NewOwned)

	// mu is the short-term structure latch protecting toc, the piece
	// list links, and piece bounds. It is held only during lookups and
	// boundary insertion, never during data reorganization. LatchNone
	// mode (single-threaded by contract) skips it entirely so that the
	// Figure 13 "CC disabled" run truly performs no synchronization.
	mu       sync.Mutex
	toc      *avltree.Tree[*piece]
	head     *piece
	arr      *cracker.Array
	total    int64 // sum of the whole array: the prefix sum of the maxKey sentinel boundary (immutable once initialized)
	init     bool
	initDone atomic.Bool // fast-path mirror of init

	colLatch *latch.Latch
	pieces   int
	auxMin   int // auxMinPiece; a field so in-package tests can lower it

	// onWait is the single shared latch-wait observer closure handed to
	// every latch this index creates (allocated once in New, not per
	// piece: pieces are born on the crack hot path).
	onWait func(d time.Duration, reader bool)

	// Differential updates (see updates.go).
	pend  pendingUpdates
	pendN pendingCounter

	stats Stats
}

// New creates an index over the base column. The column is not copied
// until the first query touches the index (index initialization is
// itself a query side effect, paper §5.3 "Column latches").
func New(base []int64, opts Options) *Index {
	ix := &Index{
		opts:   opts,
		base:   base,
		toc:    &avltree.Tree[*piece]{},
		auxMin: auxMinPiece,
	}
	if ob := opts.Obs; ob != nil {
		ix.onWait = ob.RecordLatchWait
	}
	ix.colLatch = ix.newLatch()
	return ix
}

// NewOwned creates an initialized index over an array it owns: values
// becomes the cracker array itself (cracker.NewOwned — no copy, no lazy
// initialization for a first query to pay), and the table of contents
// is seeded with the given boundaries instead of starting from one
// monolithic piece. It is the constructor for rebuilds that carry an
// earlier index's pieces over (shard group-apply, split, merge): the
// caller lays values out piece by piece and records where each piece
// starts, so the successor is born with the refinement its predecessor
// earned and not one partition pass is repeated.
//
// seeds must be strictly increasing in Value and non-decreasing in Pos,
// and values must already satisfy every boundary (positions < Pos hold
// values < Value, the others values >= Value); Validate checks exactly
// that. RowIDs are positional in the array as handed over: an owned
// array has no separate base column to stay aligned with.
func NewOwned(values []int64, seeds []BoundaryPosition, opts Options) *Index {
	ix := New(nil, opts)
	ix.installArray(cracker.NewOwned(values, opts.Layout))
	tail := ix.head // one running sum: every seed's prefix, then the total
	for _, b := range seeds {
		if b.Value <= tail.loVal || b.Pos < tail.lo || b.Pos > tail.hi {
			panic(fmt.Sprintf("crackindex: seed boundary (%d at %d) out of order after (%d at %d)",
				b.Value, b.Pos, tail.loVal, tail.lo))
		}
		tail = ix.splitTwoLocked(tail, b.Value, b.Pos, tail.loSum+ix.arr.Sum(tail.lo, b.Pos))
	}
	ix.total = tail.loSum + ix.arr.Sum(tail.lo, tail.hi)
	return ix
}

// Len returns the number of rows the index covers.
func (ix *Index) Len() int {
	if ix.base != nil || !ix.initDone.Load() {
		return len(ix.base)
	}
	return ix.arr.Len()
}

// newLatch creates a latch wired to the index's wait observer. Every
// latch creation site (column latch, head piece, split pieces) must go
// through it so waits on pieces born from future cracks are observed
// too.
func (ix *Index) newLatch() *latch.Latch {
	l := latch.New(ix.opts.Scheduling)
	if ix.onWait != nil {
		l.SetWaitObserver(ix.onWait)
	}
	return l
}

// structLock / structUnlock guard the table of contents; LatchNone
// mode skips them (see the mu field comment).
func (ix *Index) structLock() {
	if ix.opts.Latching != LatchNone {
		ix.mu.Lock()
	}
}

func (ix *Index) structUnlock() {
	if ix.opts.Latching != LatchNone {
		ix.mu.Unlock()
	}
}

// ensureInitLocked builds the cracker array and head piece on first
// use. Caller must hold the structure latch (or be otherwise exclusive).
func (ix *Index) ensureInitLocked() {
	if ix.init {
		return
	}
	start := time.Now()
	arr := cracker.New(ix.base, ix.opts.Layout)
	ix.total = arr.Sum(0, arr.Len())
	ix.installArray(arr)
	ix.stats.InitTime.Add(time.Since(start))
}

// installArray makes arr the index's cracker array under one
// monolithic head piece and marks the index initialized. Caller must
// hold the structure latch (or be otherwise exclusive), and must have
// set ix.total unless nobody else can reach the index yet (NewOwned).
func (ix *Index) installArray(arr *cracker.Array) {
	ix.arr = arr
	ix.head = &piece{
		lo: 0, hi: arr.Len(),
		loVal: minKey, hiVal: maxKey,
		latch: ix.newLatch(),
	}
	ix.pieces = 1
	ix.init = true
	ix.initDone.Store(true)
}

// findPieceLocked returns the piece containing value v. Caller must
// hold the structure latch (LatchPiece) or otherwise exclude
// structural changes.
func (ix *Index) findPieceLocked(v int64) *piece {
	if _, p, ok := ix.toc.Floor(v); ok {
		return p
	}
	return ix.head
}

// splitTwoLocked records the crack of p at value v / position pos:
// p keeps the left part [p.lo, pos), a new piece q takes [pos, p.hi).
// sum is the new boundary's prefix sum (piece.loSum). Caller must hold
// the structure latch and p's write latch (or be otherwise exclusive).
func (ix *Index) splitTwoLocked(p *piece, v int64, pos int, sum int64) *piece {
	q := &piece{
		lo: pos, hi: p.hi,
		loVal: v, hiVal: p.hiVal,
		loSum: sum,
		prev:  p, next: p.next,
		latch: ix.newLatch(),
	}
	if p.next != nil {
		p.next.prev = q
	}
	p.next = q
	p.hi = pos
	p.hiVal = v
	ix.toc.Insert(v, q)
	ix.pieces++
	ix.stats.Boundaries.Inc()
	return q
}

// LifecycleState is the index life-cycle state of the paper's
// Figure 5. Traditional online index builds pass through a partially
// populated but fully optimized state (3); adaptive indexing instead
// inhabits state 4 — fully populated, partially optimized — and keeps
// serving both reads and refinements there.
type LifecycleState int

const (
	// StateNonexistent: the index does not exist yet (state 1/2 — the
	// catalog entry is the Index value itself, created but empty).
	StateNonexistent LifecycleState = iota
	// StateAdaptive: fully populated, partially optimized (state 4).
	// All index entries exist but not yet in final position;
	// optimization is left to future queries.
	StateAdaptive
	// StateOptimized: fully populated and effectively fully optimized
	// (state 5): every piece is at most OptimizedPieceSize wide, so a
	// lookup costs no more than a bounded final partitioning pass.
	StateOptimized
)

// String returns the state's display name.
func (s LifecycleState) String() string {
	switch s {
	case StateNonexistent:
		return "nonexistent"
	case StateAdaptive:
		return "adaptive (fully populated, partially optimized)"
	default:
		return "optimized"
	}
}

// OptimizedPieceSize is the piece-width threshold below which the
// index counts as fully optimized (Figure 5 state 5): remaining
// refinement work per query is bounded by this constant.
const OptimizedPieceSize = 64

// Lifecycle reports the index's Figure 5 state.
func (ix *Index) Lifecycle() LifecycleState {
	ix.structLock()
	defer ix.structUnlock()
	if !ix.init {
		return StateNonexistent
	}
	for p := ix.head; p != nil; p = p.next {
		if p.hi-p.lo > OptimizedPieceSize {
			return StateAdaptive
		}
	}
	return StateOptimized
}

// NumPieces returns the current number of pieces (1 + #boundaries).
func (ix *Index) NumPieces() int {
	ix.structLock()
	defer ix.structUnlock()
	if !ix.init {
		return 0
	}
	return ix.pieces
}

// Boundaries returns the crack boundary values in increasing order.
func (ix *Index) Boundaries() []int64 {
	ix.structLock()
	defer ix.structUnlock()
	return ix.toc.Keys()
}

// PhysicalValues returns a copy of the cracker array's values in
// their current physical order. For inspection and visualization;
// callers should quiesce concurrent queries first.
func (ix *Index) PhysicalValues() []int64 {
	ix.structLock()
	defer ix.structUnlock()
	if !ix.init {
		return nil
	}
	return ix.arr.Values()
}

// BoundaryPosition is one crack boundary: all values at positions
// < Pos are < Value, all others are >= Value.
type BoundaryPosition struct {
	Value int64
	Pos   int
}

// BoundaryPositions returns the crack boundaries with their array
// positions, in increasing value order.
func (ix *Index) BoundaryPositions() []BoundaryPosition {
	ix.structLock()
	defer ix.structUnlock()
	out := make([]BoundaryPosition, 0, ix.toc.Len())
	ix.toc.Ascend(func(k int64, p *piece) bool {
		out = append(out, BoundaryPosition{Value: k, Pos: p.lo})
		return true
	})
	return out
}

// Stats returns a pointer to the index-wide counters.
func (ix *Index) Stats() *Stats { return &ix.stats }

// PieceProfile summarizes the piece-size distribution — the
// convergence shape of the index. A well-cracked index has many
// near-uniform pieces (entropy near 1, small max fraction); an index
// stagnating under a sequential workload keeps one dominant piece
// (max fraction near 1) however many boundaries it accumulates.
type PieceProfile struct {
	// Pieces is the piece count (0 before initialization).
	Pieces int
	// MaxPiece is the widest piece in rows.
	MaxPiece int
	// MaxPieceFrac is MaxPiece as a fraction of all rows (0..1).
	MaxPieceFrac float64
	// Entropy is the Shannon entropy of the piece-size distribution
	// normalized to [0, 1]: 1 means perfectly uniform pieces, values
	// near 0 mean one piece dominates.
	Entropy float64
}

// Profile computes the current piece-size distribution summary by
// walking the piece list under the structure latch (a cold-path read;
// cost is O(pieces), no piece latches taken).
func (ix *Index) Profile() PieceProfile {
	ix.structLock()
	defer ix.structUnlock()
	if !ix.init {
		return PieceProfile{}
	}
	total := ix.arr.Len()
	pr := PieceProfile{Pieces: ix.pieces}
	if total == 0 {
		return pr
	}
	var h float64
	for p := ix.head; p != nil; p = p.next {
		w := p.hi - p.lo
		if w <= 0 {
			continue
		}
		if w > pr.MaxPiece {
			pr.MaxPiece = w
		}
		f := float64(w) / float64(total)
		h -= f * math.Log2(f)
	}
	pr.MaxPieceFrac = float64(pr.MaxPiece) / float64(total)
	if pr.Pieces > 1 {
		pr.Entropy = h / math.Log2(float64(pr.Pieces))
	}
	return pr
}

// Validate checks every structural invariant of the index and returns
// an error describing the first violation. It must be called while no
// queries are in flight (it takes no piece latches). Checked:
//
//   - the piece list is contiguous, starts at 0, ends at Len, and its
//     value bounds are strictly increasing;
//   - the AVL table of contents maps exactly the piece boundaries;
//   - every piece physically contains only values in [loVal, hiVal);
//   - every boundary's prefix sum (piece.loSum, and the total behind the
//     maxKey sentinel) equals the sum of the values below it;
//   - the rowIDs are a permutation of the positions, and — for an
//     index built over a base column (New) — every rowID still maps to
//     its base value. An owned array (NewOwned) has no base to align
//     with: its values are checked against the piece bounds only.
func (ix *Index) Validate() error {
	ix.structLock()
	defer ix.structUnlock()
	if !ix.init {
		return nil
	}
	// Piece chain.
	pos, nPieces := 0, 0
	prevHi := int64(minKey)
	var running int64
	for p := ix.head; p != nil; p = p.next {
		nPieces++
		if p.lo != pos {
			return fmt.Errorf("crackindex: piece chain gap at pos %d (piece.lo=%d)", pos, p.lo)
		}
		if p.hi < p.lo {
			return fmt.Errorf("crackindex: negative piece [%d,%d)", p.lo, p.hi)
		}
		if p.loSum != running {
			return fmt.Errorf("crackindex: boundary %d carries prefix sum %d, the values below it sum to %d", p.loVal, p.loSum, running)
		}
		if p != ix.head && p.loVal != prevHi {
			return fmt.Errorf("crackindex: piece loVal %d != previous hiVal %d", p.loVal, prevHi)
		}
		for i := p.lo; i < p.hi; i++ {
			v := ix.arr.Value(i)
			running += v
			if v < p.loVal || v >= p.hiVal {
				return fmt.Errorf("crackindex: value %d at pos %d outside piece [%d,%d)",
					v, i, p.loVal, p.hiVal)
			}
		}
		prevHi = p.hiVal
		pos = p.hi
	}
	if pos != ix.arr.Len() {
		return fmt.Errorf("crackindex: piece chain covers %d of %d positions", pos, ix.arr.Len())
	}
	if ix.total != running {
		return fmt.Errorf("crackindex: total %d, the array sums to %d", ix.total, running)
	}
	if nPieces != ix.pieces {
		return fmt.Errorf("crackindex: pieces counter %d, chain has %d", ix.pieces, nPieces)
	}
	// TOC consistency.
	if ix.toc.Len() != nPieces-1 {
		return fmt.Errorf("crackindex: TOC has %d boundaries for %d pieces", ix.toc.Len(), nPieces)
	}
	var tocErr error
	ix.toc.Ascend(func(k int64, p *piece) bool {
		if p.loVal != k {
			tocErr = fmt.Errorf("crackindex: TOC key %d maps to piece starting at %d", k, p.loVal)
			return false
		}
		return true
	})
	if tocErr != nil {
		return tocErr
	}
	// Permutation + alignment with the base column.
	owned := ix.base == nil
	if !owned && ix.arr.Len() != len(ix.base) {
		return fmt.Errorf("crackindex: array length %d != base %d", ix.arr.Len(), len(ix.base))
	}
	seen := make([]bool, ix.arr.Len())
	for i := 0; i < ix.arr.Len(); i++ {
		id := ix.arr.RowID(i)
		if int(id) >= len(seen) || seen[id] {
			return fmt.Errorf("crackindex: rowID %d out of range or duplicated", id)
		}
		seen[id] = true
		if !owned && ix.base[id] != ix.arr.Value(i) {
			return fmt.Errorf("crackindex: rowID %d maps to %d, base has %d",
				id, ix.arr.Value(i), ix.base[id])
		}
	}
	return nil
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// Initialized reports whether the cracker array has been built.
func (ix *Index) Initialized() bool {
	ix.structLock()
	defer ix.structUnlock()
	return ix.init
}

// Registry tracks which cracker indexes exist, keyed by column name.
// It models the paper's "global data structure that keeps track of
// which cracker indexes do exist" (§5.3): the select operator latches
// it briefly to look up or initialize the index for a column, then
// releases it before doing any cracking.
type Registry struct {
	mu      sync.RWMutex
	indexes map[string]*Index
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{indexes: make(map[string]*Index)}
}

// GetOrCreate returns the index registered under name, creating it
// with base and opts on first use.
func (r *Registry) GetOrCreate(name string, base []int64, opts Options) *Index {
	r.mu.RLock()
	ix, ok := r.indexes[name]
	r.mu.RUnlock()
	if ok {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix, ok = r.indexes[name]; ok {
		return ix
	}
	ix = New(base, opts)
	r.indexes[name] = ix
	return ix
}

// Get returns the index registered under name, if any.
func (r *Registry) Get(name string) (*Index, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix, ok := r.indexes[name]
	return ix, ok
}

// Drop removes the index registered under name. Adaptive indexes are
// optional and can be dropped at any time (paper §4.2).
func (r *Registry) Drop(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.indexes, name)
}

// Names returns the registered column names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.indexes))
	for n := range r.indexes {
		out = append(out, n)
	}
	return out
}
