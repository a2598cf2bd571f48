// Package crackindex implements the cracked-column index — selection
// cracking over a column-store array — together with the paper's
// concurrency-control protocols for the index-refining side effects of
// read-only queries (paper §5).
//
// The index consists of (paper §5.2):
//
//   - a cracker array (internal/cracker): a dense auxiliary copy of the
//     column, continuously reorganized in place;
//   - a table of contents (internal/directory) mapping every crack
//     boundary value to its array position and the prefix sum of the
//     rows below it. The paper keeps an AVL tree under a structure
//     latch; boundaries are only ever added and never change, so here
//     they live in sorted copy-on-write chunks behind one atomic
//     pointer, and a lookup takes no latch of any kind;
//   - per piece, a short-term read/write latch with a sorted waiter
//     queue (internal/latch), created when a query first has to latch
//     the piece and reached through the piece's directory entry. A piece
//     is nothing but two adjacent entries: it starts at one boundary and
//     ends at the next.
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

	"adaptix/internal/cracker"
	"adaptix/internal/directory"
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
	// Layout selects the cracker-array representation (Figure 7) of a
	// New index. A NewOwned index ignores it: its array stores values
	// only (cracker.NewOwned), in either layout.
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

// piece is one contiguous segment of the cracker array as its holder
// sees it: the boundary it starts at, the boundary it ends at, and its
// latch (nil in the exclusive modes). It is a view assembled from the
// directory, not a stored object.
//
// Synchronization discipline (race-freedom relies on it):
//   - a directory entry — boundary value, position, prefix sum — is
//     immutable from the moment it is published, and entries are never
//     removed. The prefix sum belongs to the boundary, not to the piece's
//     contents: a crack permutes rows inside one piece only, so nothing
//     below an existing boundary ever changes. Reading an entry therefore
//     needs no latch, and a stale version of the directory is safe to
//     answer from: it can only lack boundaries (a coarser, equally valid
//     table), never hold a wrong one;
//   - where a piece ENDS is not a property of its entry but whatever
//     entry comes next, and only the holder of the piece's write latch
//     (or of the column write latch; LatchNone is single-threaded) may
//     publish a cut inside it. So `next` is read from the current
//     directory AFTER the latch is granted (pin) and is then stable until
//     the latch is released; every cut made by an earlier holder was
//     published before that holder let go. That re-read is the
//     re-determination of Figure 10;
//   - a piece's latch is created when a query first has to latch it and
//     installed in the current version of its entry under mu; every later
//     version carries it over, so all queries meet on the same latch;
//   - mu serializes the publishers (cuts, latch installs) among
//     themselves and nothing else. No lookup ever takes it.
type piece struct {
	at, next directory.Ref
	latch    *latch.Latch
}

func (p piece) lo() int      { return p.at.Pos() }
func (p piece) hi() int      { return p.next.Pos() }
func (p piece) loVal() int64 { return p.at.Key() }
func (p piece) hiVal() int64 { return p.next.Key() }

// Stats aggregates index-wide counters.
type Stats struct {
	// Cracks counts physical reorganization actions (a crack-in-three
	// counts once).
	Cracks metrics.Counter
	// Boundaries counts crack boundaries added to the table of contents.
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

// OpStats is the per-operation cost breakdown — the paper's per-query
// record of latch wait versus refinement time plus conflicts (Figures
// 13-15). It is the one cost record of the whole stack: every method's
// Count / Sum returns it, the shard fan-out merges it, the harness row
// and the facade's Result embed it.
type OpStats struct {
	// Wait is time spent blocked on latches.
	Wait time.Duration
	// Refine is time spent refining the index as a side effect of the
	// query: cracking here, sorting runs or merging in the other
	// methods.
	Refine time.Duration
	// Critical is the critical-path time of a fan-out execution: the
	// slowest sub-query's elapsed time (shard.Column sets it; Wait and
	// Refine sum total work across all sub-queries instead). It
	// measures index work, so it is zero when no shard ran a sub-query
	// (every overlapping shard was covered by the predicate or answered
	// from its table of contents), and for single-domain operations.
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

	// dir is the table of contents. It always starts with the minKey
	// sentinel (position 0, sum 0) and ends with the maxKey sentinel
	// (position Len, the sum of the whole array), so every value has a
	// floor entry and every piece a successor. Lookups are latch-free.
	dir directory.Dir
	// mu is the publishers' mutex: it serializes changes to dir (a
	// crack's cuts, a piece's first latch) and the one-off
	// initialization. It is held for a chunk copy, never during data
	// reorganization, and never by a lookup. LatchNone mode
	// (single-threaded by contract) skips it entirely so that the
	// Figure 13 "CC disabled" run truly performs no synchronization.
	mu       sync.Mutex
	arr      *cracker.Array
	initDone atomic.Bool // set once arr and dir are in place

	colLatch *latch.Latch
	auxMin   int // auxMinPiece; a field so in-package tests can lower it

	// onWait is the single shared latch-wait observer closure handed to
	// every latch this index creates (allocated once in New, not per
	// latch: latches are born on the crack hot path).
	onWait func(d time.Duration, reader bool)

	stats Stats
}

// New creates an index over the base column. The column is not copied
// until the first query touches the index (index initialization is
// itself a query side effect, paper §5.3 "Column latches").
func New(base []int64, opts Options) *Index {
	ix := &Index{
		opts:   opts,
		base:   base,
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
// is bulk-built from the given boundaries instead of starting from one
// monolithic piece. It is the constructor for whoever lays the values
// out piece by piece and records where each piece starts: the shard
// build's range scatter, and the rebuilds that carry an earlier index's
// pieces over (shard group-apply, split, merge) so that not one
// partition pass is repeated.
//
// seeds must be strictly increasing in Value and non-decreasing in Pos,
// values must already satisfy every boundary (positions < Pos hold
// values < Value, the others values >= Value), and a seed's Sum must be
// the sum of values[:Pos]: the caller has just passed over every piece,
// so the constructor reads only the tail piece. Validate checks all
// three. The array is value-only whatever opts.Layout says: an order
// the caller assembled names no base row, so the index keeps no row
// ids and SelectRowIDs panics (New keeps them).
func NewOwned(values []int64, seeds []BoundaryPosition, opts Options) *Index {
	ix := New(nil, opts)
	arr := cracker.NewOwned(values)
	entries := make([]directory.Entry, 1, len(seeds)+2)
	entries[0].Key = minKey
	tail := entries[0]
	for _, b := range seeds {
		if b.Value <= tail.Key || b.Value == maxKey || b.Pos < tail.Pos || b.Pos > arr.Len() {
			panic(fmt.Sprintf("crackindex: seed boundary (%d at %d) out of order after (%d at %d)",
				b.Value, b.Pos, tail.Key, tail.Pos))
		}
		tail = directory.Entry{Key: b.Value, Pos: b.Pos, Sum: b.Sum}
		entries = append(entries, tail)
	}
	ix.install(arr, append(entries, directory.Entry{Key: maxKey, Pos: arr.Len(), Sum: tail.Sum + arr.Sum(tail.Pos, arr.Len())}))
	ix.stats.Boundaries.Add(int64(len(seeds)))
	return ix
}

// HasRowIDs reports whether the index keeps a row id per value, as
// SelectRowIDs needs: a New index does, a NewOwned index does not.
func (ix *Index) HasRowIDs() bool { return !ix.initDone.Load() || ix.arr.HasRowIDs() }

// Len returns the number of rows the index covers.
func (ix *Index) Len() int {
	if ix.base != nil || !ix.initDone.Load() {
		return len(ix.base)
	}
	return ix.arr.Len()
}

// newLatch creates a latch wired to the index's wait observer. Every
// latch creation site (column latch, a piece's first latching, the
// middle piece of a crack-in-three) must go through it so waits on
// pieces born from future cracks are observed too.
func (ix *Index) newLatch() *latch.Latch {
	l := latch.New(ix.opts.Scheduling)
	if ix.onWait != nil {
		l.SetWaitObserver(ix.onWait)
	}
	return l
}

// publish adds a crack's cuts to the table of contents under the
// publishers' mutex; LatchNone mode skips it (see the mu field comment).
func (ix *Index) publish(cuts []directory.Entry) {
	if ix.opts.Latching != LatchNone {
		ix.mu.Lock()
		defer ix.mu.Unlock()
	}
	ix.dir.Publish(cuts)
	ix.stats.Boundaries.Add(int64(len(cuts)))
}

// install makes arr the index's cracker array under the given table of
// contents (sentinels included) and marks the index initialized. Caller
// must hold mu unless nobody else can reach the index yet (NewOwned).
func (ix *Index) install(arr *cracker.Array, entries []directory.Entry) {
	ix.arr = arr
	ix.dir.Build(entries)
	ix.initDone.Store(true)
}

// latchOf returns the latch of the piece starting at p (LatchPiece
// mode), creating it on the piece's first latching. The install happens
// under mu in the CURRENT version of p's entry — p itself may be stale —
// and later versions carry the latch over, so racing first-latchers and
// queries holding any older version all end up on one latch.
func (ix *Index) latchOf(p directory.Ref) *latch.Latch {
	if l := p.Latch(); l != nil {
		return l
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.dir.Current(p)
	l := cur.Latch()
	if l == nil {
		l = ix.newLatch()
		cur.SetLatch(l)
	}
	return l
}

// pin returns the piece starting at p with its extent read from the
// current directory. The caller must hold what makes that extent stable:
// l, the piece's latch (either mode), or — l nil — the column latch or
// single-threaded access.
func (ix *Index) pin(p directory.Ref, l *latch.Latch) piece {
	p = ix.dir.Current(p)
	return piece{at: p, next: p.Next(), latch: l}
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

// Lifecycle reports the index's Figure 5 state. Like every inspection
// of the table of contents (NumPieces, Boundaries, BoundaryPositions,
// Profile) it reads the directory without a latch and stops no query.
func (ix *Index) Lifecycle() LifecycleState {
	if !ix.initDone.Load() {
		return StateNonexistent
	}
	lo := 0
	for e := range ix.dir.Ascend {
		if e.Pos-lo > OptimizedPieceSize {
			return StateAdaptive
		}
		lo = e.Pos
	}
	return StateOptimized
}

// NumPieces returns the current number of pieces (1 + #boundaries).
func (ix *Index) NumPieces() int {
	if !ix.initDone.Load() {
		return 0
	}
	return ix.dir.Len() - 1 // entries: the boundaries and the two sentinels
}

// Boundaries returns the crack boundary values in increasing order.
func (ix *Index) Boundaries() []int64 {
	out := make([]int64, 0, max(ix.dir.Len()-2, 0))
	for e := range ix.dir.Ascend {
		if e.Key != minKey && e.Key != maxKey {
			out = append(out, e.Key)
		}
	}
	return out
}

// PhysicalValues returns a copy of the cracker array's values in
// their current physical order. For inspection and visualization;
// callers should quiesce concurrent queries first.
func (ix *Index) PhysicalValues() []int64 {
	if !ix.initDone.Load() {
		return nil
	}
	return ix.arr.Values()
}

// BoundaryPosition is one crack boundary: all values at positions
// < Pos are < Value, all others are >= Value, and the values at
// positions < Pos add up to Sum.
type BoundaryPosition struct {
	Value int64
	Pos   int
	Sum   int64
}

// BoundaryPositions returns the crack boundaries with their array
// positions and prefix sums, in increasing value order.
func (ix *Index) BoundaryPositions() []BoundaryPosition {
	out := make([]BoundaryPosition, 0, max(ix.dir.Len()-2, 0))
	for e := range ix.dir.Ascend {
		if e.Key != minKey && e.Key != maxKey {
			out = append(out, BoundaryPosition{Value: e.Key, Pos: e.Pos, Sum: e.Sum})
		}
	}
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

// Profile computes the current piece-size distribution summary from one
// latch-free pass over the table of contents (cost O(pieces); no query
// waits for it). Pieces is counted in that same pass, so the count and
// the distribution always describe the same table.
func (ix *Index) Profile() PieceProfile {
	var pr PieceProfile
	if !ix.initDone.Load() {
		return pr
	}
	total, lo := ix.arr.Len(), 0
	var h float64
	for e := range ix.dir.Ascend {
		if e.Key == minKey {
			continue
		}
		pr.Pieces++
		w := e.Pos - lo
		lo = e.Pos
		if w <= 0 {
			continue
		}
		if w > pr.MaxPiece {
			pr.MaxPiece = w
		}
		f := float64(w) / float64(total)
		h -= f * math.Log2(f)
	}
	if total == 0 {
		return pr
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
//   - the table of contents is well formed (directory.Validate: chunk
//     sizes, key order within and across chunks, top-level first keys,
//     entry count);
//   - it starts with the minKey sentinel at position 0 and ends with the
//     maxKey sentinel at position Len, and positions never decrease;
//   - every piece physically contains only values in [loVal, hiVal);
//   - every boundary's prefix sum (the maxKey sentinel's is the total)
//     equals the sum of the values below it;
//   - for an index built over a base column (New), the rowIDs are a
//     permutation of the positions and every rowID still maps to its
//     base value. An owned array (NewOwned) stores values only: there
//     is nothing to permute, and its values are checked against the
//     piece bounds and prefix sums above.
func (ix *Index) Validate() error {
	if !ix.initDone.Load() {
		return nil
	}
	if err := ix.dir.Validate(); err != nil {
		return fmt.Errorf("crackindex: %w", err)
	}
	prev := directory.Entry{Key: minKey}
	var running int64
	for e := range ix.dir.Ascend {
		if e.Key == minKey {
			if e.Pos != 0 || e.Sum != 0 {
				return fmt.Errorf("crackindex: minKey sentinel at pos %d with prefix sum %d", e.Pos, e.Sum)
			}
			continue
		}
		if e.Pos < prev.Pos || e.Pos > ix.arr.Len() {
			return fmt.Errorf("crackindex: boundary %d at pos %d after boundary %d at pos %d (array length %d)",
				e.Key, e.Pos, prev.Key, prev.Pos, ix.arr.Len())
		}
		for i := prev.Pos; i < e.Pos; i++ {
			v := ix.arr.Value(i)
			running += v
			if v < prev.Key || v >= e.Key {
				return fmt.Errorf("crackindex: value %d at pos %d outside piece [%d,%d)", v, i, prev.Key, e.Key)
			}
		}
		if e.Sum != running {
			return fmt.Errorf("crackindex: boundary %d carries prefix sum %d, the values below it sum to %d", e.Key, e.Sum, running)
		}
		prev = e
	}
	if first := ix.dir.Floor(minKey); !first.OK() || prev.Key != maxKey || prev.Pos != ix.arr.Len() {
		return fmt.Errorf("crackindex: table of contents runs from a minKey sentinel (%t) to (%d at %d), want (%d at %d)",
			first.OK(), prev.Key, prev.Pos, int64(maxKey), ix.arr.Len())
	}
	if !ix.arr.HasRowIDs() {
		return nil
	}
	// Permutation + alignment with the base column.
	if ix.arr.Len() != len(ix.base) {
		return fmt.Errorf("crackindex: array length %d != base %d", ix.arr.Len(), len(ix.base))
	}
	seen := make([]bool, ix.arr.Len())
	for i := 0; i < ix.arr.Len(); i++ {
		id := ix.arr.RowID(i)
		if int(id) >= len(seen) || seen[id] {
			return fmt.Errorf("crackindex: rowID %d out of range or duplicated", id)
		}
		seen[id] = true
		if ix.base[id] != ix.arr.Value(i) {
			return fmt.Errorf("crackindex: rowID %d maps to %d, base has %d",
				id, ix.arr.Value(i), ix.base[id])
		}
	}
	return nil
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// Initialized reports whether the cracker array has been built.
func (ix *Index) Initialized() bool { return ix.initDone.Load() }

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
