// The concurrent write path and the structural operations of the
// sharded column.
//
// Routed updates: Insert and DeleteValue navigate the current shard
// map snapshot to the owning shard and land in that shard's epoch
// chain (internal/epoch) — the versioned differential file — so
// queries see them immediately; the per-shard aggregates are
// maintained atomically alongside.
//
// Ordering contract between writers and the executor's aggregate fast
// path (executor.go reads rows/total BEFORE minA/maxA), extended
// per-epoch — the epoch append happens before the aggregate update, so
// an answer assembled from aggregates never counts a value the chain
// does not yet carry:
//
//	writer:  epoch-chain append  ->  widen minA/maxA  ->  rows/total
//	reader:  rows/total          ->  minA/maxA
//
// If a reader's rows (or total) load observes a writer's increment,
// the happens-before chain through the atomics guarantees it also
// observes that writer's widened min/max, so the fully-covered fast
// path can never count a value that lies outside the predicate. If the
// load misses the increment, the answer is simply serialized before
// that write. The aggregates live in a partAgg shared between a part
// and the successor a group-apply publishes, so the contract holds
// across the swap without draining writers.
//
// Structural operations come in two shapes:
//
//   - The epoch-chain group-apply (SealEpoch + ApplySealed, or the
//     one-shot ApplyShard) seals only the shard's CURRENT epoch:
//     writers immediately append to the freshly opened successor and
//     never park, while the sealed prefix merges into a rebuilt
//     cracker array in the background. The successor part shares the
//     ancestor's aggregates and forks its chain past the applied
//     watermark; a writer still holding the pre-publish part appends
//     to the same (shared) open epoch file, so no write is ever lost
//     to the swap.
//
//   - Rerouting operations (SplitShard, MergeShards) follow the full
//     seal-rebuild-publish protocol: seal the part (drain in-flight
//     writers; parked writers wait on the part's replaced channel),
//     close the epoch chain so writers holding a stale pre-fork part
//     cut over too, carry the logical contents over into replacement
//     part(s), and atomically publish a new shard map.
//
// Both shapes rebuild through one helper, carryOver: a piece-preserving
// merge that walks the predecessor's pieces in key order under their
// read latches and copies each piece — minus its anti-matter deletes,
// plus the pending inserts of its key range — straight into the
// successor's array, recording where each piece starts. The successor's
// table of contents is seeded from those positions, so a rebuild costs
// O(rows + pending) and repeats not one partition pass: the refinement
// earlier queries earned is carried over, not re-earned (paper §4.2
// separates index structure from index contents; the rebuild changes
// only the contents).
//
// Readers never block on either shape: a query holding the old map
// keeps using the old parts, which stay intact and correct (sealed
// epochs are immutable, the shared open epoch changes only under its
// own latch, and the walk holds nothing but one piece's read latch at a
// time).
package shard

import (
	"context"
	"errors"
	"slices"
	"sort"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/kernel"
	"adaptix/internal/metrics"
)

// ErrSentinelKey is the error of a write of math.MaxInt64. The key is the
// sentinel upper bound of the last shard's range [lo, math.MaxInt64),
// which no half-open query range can include: keys run from
// math.MinInt64 to math.MaxInt64-1.
var ErrSentinelKey = errors.New("shard: math.MaxInt64 is the sentinel key and cannot be stored")

// Insert adds one logical instance of v to the column, routing it to
// the owning shard's open epoch; v = math.MaxInt64 is refused with
// ErrSentinelKey. Safe for concurrent use; an insert
// racing with a group-apply merge never parks (it rolls over to the
// next epoch), and one racing with a split or merge of the owning
// shard parks until the successor shard map is published, then
// re-routes. A writer parked behind a structural operation unparks
// promptly when ctx is cancelled, returning ctx.Err() with the write
// not applied.
func (c *Column) Insert(ctx context.Context, v int64) error {
	_, err := c.InsertEpoch(ctx, v)
	return err
}

// InsertEpoch is Insert reporting the id of the epoch the value landed
// in — the version tag a logical WAL record carries so recovery can
// tell writes captured by a checkpoint snapshot (epoch <= watermark)
// from writes that must be replayed. Every routed insert — Insert, a
// batch, the wire, a replayed log — comes through here, so this is where
// the sentinel key is refused.
func (c *Column) InsertEpoch(ctx context.Context, v int64) (int64, error) {
	if v == maxKey {
		return 0, ErrSentinelKey
	}
	c.opts.Obs.RecordWriteKey(v)
	for {
		m := c.m.Load()
		si := m.route(v)
		eid, ok, wait := m.shards[si].tryInsert(v)
		if ok {
			return eid, nil
		}
		if wait != nil {
			// Parked: split/merge in progress on the owning shard.
			if err := c.parkWaitObserved(ctx, wait, si); err != nil {
				return 0, err
			}
		}
		// else: the open epoch was sealed under a stale part reference;
		// the successor map is already published — re-route.
	}
}

// DeleteValue removes one logical instance of v, reporting whether one
// existed. Deletion is differential: it cancels a pending insert of v
// in the owning shard's open epoch if there is one, else an anti-matter
// record joins that epoch and cancels one instance at query time.
func (c *Column) DeleteValue(ctx context.Context, v int64) (bool, error) {
	deleted, _, err := c.DeleteValueEpoch(ctx, v)
	return deleted, err
}

// DeleteValueEpoch is DeleteValue reporting the id of the epoch the
// delete landed in — the epoch of the insert it cancelled, or of its
// anti-matter record (0 when no instance existed).
func (c *Column) DeleteValueEpoch(ctx context.Context, v int64) (deleted bool, epochID int64, err error) {
	if v == maxKey {
		// Never stored, and the existence probe [v, v+1) would wrap.
		return false, 0, nil
	}
	c.opts.Obs.RecordWriteKey(v)
	for {
		m := c.m.Load()
		si := m.route(v)
		eid, deleted, ok, wait, err := m.shards[si].tryDelete(ctx, v)
		if err != nil {
			return false, 0, err
		}
		if ok {
			return deleted, eid, nil
		}
		if wait != nil {
			if err := c.parkWaitObserved(ctx, wait, si); err != nil {
				return false, 0, err
			}
		}
	}
}

// parkWaitObserved is parkWait reporting the park duration to the
// column's observer (writer-park histogram; parks over the stall
// threshold also land in the flight recorder). The park path is
// already blocking on a structural rebuild, so the two clock reads
// cost nothing relative to the wait itself.
func (c *Column) parkWaitObserved(ctx context.Context, wait <-chan struct{}, shard int) error {
	if c.opts.Obs == nil {
		return parkWait(ctx, wait)
	}
	t0 := time.Now()
	err := parkWait(ctx, wait)
	c.opts.Obs.RecordWriterPark(int32(shard), time.Since(t0))
	return err
}

// parkWait blocks until the structural operation that sealed the
// writer's shard publishes its successor map (wait closes), or until
// ctx is cancelled — parked writers are context-aware, so a deadline
// bounds the time spent behind a split or merge.
func parkWait(ctx context.Context, wait <-chan struct{}) error {
	if done := ctx.Done(); done != nil {
		select {
		case <-wait:
		case <-done:
			return ctx.Err()
		}
		return nil
	}
	<-wait
	return nil
}

// tryInsert applies the insert unless the part is sealed (structural
// reroute in progress: wait on the returned channel) or its open epoch
// was sealed under a stale reference (re-route immediately: ok false,
// wait nil).
func (p *part) tryInsert(v int64) (epochID int64, ok bool, wait <-chan struct{}) {
	p.wmu.RLock()
	if p.sealed {
		ch := p.replaced
		p.wmu.RUnlock()
		return 0, false, ch
	}
	eid, ok := p.chain.Insert(v)
	if !ok {
		p.wmu.RUnlock()
		return 0, false, nil
	}
	p.widen(v)
	p.agg.rows.Add(1)
	p.agg.total.Add(v)
	p.wmu.RUnlock()
	return eid, true, nil
}

// tryDelete removes one instance of v unless the part is sealed or its
// open epoch was sealed under a stale reference (as tryInsert). Its
// first attempt counts no base instance: it succeeds whenever the chain
// alone proves one — a pending insert of v in the open epoch, which it
// cancels, or a net insert in a sealed epoch — and such a delete probes
// nothing, cracks nothing and grows no directory. Only when the chain
// proves no instance does it count v's base instances and try again.
func (p *part) tryDelete(ctx context.Context, v int64) (epochID int64, deleted, ok bool, wait <-chan struct{}, err error) {
	if epochID, deleted, ok, wait = p.chainDelete(v, 0); !ok || deleted {
		return epochID, deleted, ok, wait, nil
	}
	baseN, err := p.baseCount(ctx, v)
	if err != nil {
		return 0, false, false, nil, err
	}
	epochID, deleted, ok, wait = p.chainDelete(v, baseN)
	return epochID, deleted, ok, wait, nil
}

// chainDelete runs one epoch.Chain.Delete of v against baseN base
// instances under the part's writer latch.
func (p *part) chainDelete(v, baseN int64) (epochID int64, deleted, ok bool, wait <-chan struct{}) {
	p.wmu.RLock()
	defer p.wmu.RUnlock()
	if p.sealed {
		return 0, false, false, p.replaced
	}
	epochID, deleted, ok = p.chain.Delete(v, baseN)
	if deleted {
		p.agg.rows.Add(-1)
		p.agg.total.Add(-v)
	}
	return epochID, deleted, ok, nil
}

// baseCount counts the instances of v in the shard's base multiset —
// the delete-existence witness of a delete whose instance the epoch
// chain alone does not prove. Cracked shards probe their index,
// cracking at v and v+1 as a side effect — one user operation both
// querying and optimizing (paper §3); custom-source shards ask their
// AggregateSource (refining it, like any query). It runs outside every
// latch: cracks permute the base, its multiset never changes, so the
// count stays valid. The probe honours the caller's context — a
// deadline expiring while it is parked on a piece latch aborts the
// delete with the write not applied.
func (p *part) baseCount(ctx context.Context, v int64) (int64, error) {
	if p.ix != nil {
		n, _, err := p.ix.CountCtx(ctx, v, v+1)
		return n, err
	}
	n, _, err := p.src.Count(ctx, v, v+1)
	return n, err
}

// widen extends the min/max envelope to cover v (CAS loops; the
// envelope only ever widens, see the partAgg docs).
func (p *part) widen(v int64) {
	for {
		cur := p.agg.minA.Load()
		if v >= cur || p.agg.minA.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := p.agg.maxA.Load()
		if v <= cur || p.agg.maxA.CompareAndSwap(cur, v) {
			break
		}
	}
}

// seal blocks new writers and drains in-flight ones, then closes the
// epoch chain so writers holding a stale pre-fork part reference are
// cut off too (their append fails and they re-route to this part's
// current map entry, where they park). Caller must hold c.structMu and
// must eventually either retire or unseal the part.
func (p *part) seal() {
	p.wmu.Lock()
	p.sealed = true
	p.wmu.Unlock()
	if p.chain != nil {
		p.chain.Close()
	}
}

// unseal reopens a sealed part (a structural operation that found
// nothing to do). The chain gets a fresh open epoch and the replaced
// channel is rotated so parked writers wake, re-route, and find the
// same part writable again.
func (p *part) unseal() {
	if p.chain != nil {
		p.chain.Reopen()
	}
	p.wmu.Lock()
	p.sealed = false
	old := p.replaced
	p.replaced = make(chan struct{})
	p.wmu.Unlock()
	close(old)
}

// retire wakes writers parked on a sealed part after its successor map
// is published. The part itself stays intact for readers still holding
// the old map.
func (p *part) retire() {
	close(p.replaced)
}

// baseRows is the row count of the part's base: the array its index
// owns, or the base slice of a custom-source shard.
func (p *part) baseRows() int {
	if p.ix != nil {
		return p.ix.Len()
	}
	return len(p.base)
}

// layout is a successor's cracker array being laid out piece by piece:
// the values so far, one seed per piece boundary (newPart seeds the table
// of contents from them), and the values' sum — the next seed's prefix.
type layout struct {
	vals  []int64
	seeds []crackindex.BoundaryPosition
	sum   int64
}

// cut starts a new piece at boundary value v.
func (l *layout) cut(v int64) {
	l.seeds = append(l.seeds, crackindex.BoundaryPosition{Value: v, Pos: len(l.vals), Sum: l.sum})
}

// add appends one piece — vals with its share of the differential
// applied (mergePiece) — and sums it while the copy is still in cache.
func (l *layout) add(vals, ins, del []int64) {
	from := len(l.vals)
	l.vals = mergePiece(l.vals, vals, ins, del)
	l.sum += kernel.Sum(l.vals[from:])
}

// carryOver is the one rebuild primitive: it appends the part's base
// with a differential snapshot applied (pending inserts ins and
// anti-matter deletes del, any order; both are sorted in place) to l,
// piece by piece in key order, cutting l at every piece boundary.
//
// Within a piece the order is: surviving base values in their current
// physical order, then the surviving inserts of the piece's key range.
// Deletes cancel base instances first and pending inserts second (a
// delete can only ever have been admitted against one of the two). The
// differential is consumed in step with the walk, so the whole merge is
// O(rows + pending log pending), and a piece without deletes is one
// memcpy.
//
// The walk takes one piece read latch at a time (crackindex.WalkPieces),
// so queries keep reading and cracking the old part throughout. A crack
// that lands behind the walk is not carried over — the successor holds
// that piece unsplit, a coarser but valid partition: every value copied
// for a piece lies inside that piece's bounds whatever happened inside
// it before or after. Custom-source shards have no piece table; their
// base slice is carried as one piece.
func (p *part) carryOver(l *layout, ins, del []int64) {
	slices.Sort(ins)
	slices.Sort(del)
	if p.ix == nil {
		l.add(p.base, ins, del)
		return
	}
	p.ix.WalkPieces(func(loVal, hiVal int64, vals []int64) {
		if loVal != minKey { // every piece but the head starts at a boundary
			l.cut(loVal)
		}
		ni, nd := len(ins), len(del) // the tail piece takes whatever is left
		if hiVal != maxKey {
			ni, _ = slices.BinarySearch(ins, hiVal)
			nd, _ = slices.BinarySearch(del, hiVal)
		}
		l.add(vals, ins[:ni], del[:nd])
		ins, del = ins[ni:], del[nd:]
	})
}

// logicalValues carries over the part's full logical contents: its base
// with the whole epoch chain applied (a nil l.vals is allocated exactly).
// Caller must have sealed the part, so the chain is stable and the
// aggregate row count exact.
func (p *part) logicalValues(l *layout) {
	if l.vals == nil {
		l.vals = make([]int64, 0, p.agg.rows.Load())
	}
	ins, del := p.chain.Collect(int64(maxKey))
	p.carryOver(l, ins, del)
}

// mergePiece appends vals minus the deletes in del plus the inserts in
// ins (both sorted) to dst: each delete cancels one base instance of
// its key if one is left, else one pending insert.
func mergePiece(dst, vals, ins, del []int64) []int64 {
	if len(del) == 0 {
		return append(append(dst, vals...), ins...)
	}
	// taken[i], at the first index of a run of equal delete keys, counts
	// how many of the run's deletes found a base instance.
	taken := make([]int, len(del))
	for _, v := range vals {
		if i, found := slices.BinarySearch(del, v); found {
			if j := i + taken[i]; j < len(del) && del[j] == v {
				taken[i]++
				continue
			}
		}
		dst = append(dst, v)
	}
	for i := 0; i < len(del); {
		key, run := del[i], i
		for i < len(del) && del[i] == key {
			i++
		}
		n, _ := slices.BinarySearch(ins, key)
		dst = append(dst, ins[:n]...)
		ins = ins[n:]
		for left := i - run - taken[run]; left > 0 && len(ins) > 0 && ins[0] == key; left-- {
			ins = ins[1:]
		}
	}
	return append(dst, ins...)
}

// publish swaps old.shards[i:i+n] for repl under the given bounds and
// makes the new map visible to readers and writers atomically.
func (c *Column) publish(old *shardMap, i, n int, repl []*part, bounds []int64) {
	shards := make([]*part, 0, len(old.shards)-n+len(repl))
	shards = append(shards, old.shards[:i]...)
	shards = append(shards, repl...)
	shards = append(shards, old.shards[i+n:]...)
	c.m.Store(newShardMap(bounds, shards))
}

// SealedEpoch describes one epoch sealed by SealEpoch.
type SealedEpoch struct {
	// Shard is the shard's ordinal at the time of the seal.
	Shard int
	// Epoch is the sealed epoch's id.
	Epoch int64
	// Inserts and Deletes are the record counts it was sealed with.
	Inserts, Deletes int
}

// SealEpoch seals shard i's open epoch and opens a fresh successor:
// the first half of the epoch-chain group-apply. Writers never park —
// they roll over to the new epoch. Reports false when the open epoch is
// empty.
func (c *Column) SealEpoch(i int) (SealedEpoch, bool) {
	c.structMu.Lock()
	defer c.structMu.Unlock()
	m := c.m.Load()
	if i < 0 || i >= len(m.shards) {
		return SealedEpoch{}, false
	}
	t0 := time.Now()
	info, ok := m.shards[i].chain.Seal()
	if !ok {
		return SealedEpoch{}, false
	}
	c.opts.Obs.RecordStructural(metrics.EvSeal, int32(i), time.Since(t0), int64(info.Ins+info.Del))
	return SealedEpoch{Shard: i, Epoch: info.ID, Inserts: info.Ins, Deletes: info.Del}, true
}

// Applied describes one group-apply merge (ApplyShard / ApplySealed).
type Applied struct {
	// Shard is the ordinal of the merged shard at the time of the merge.
	Shard int
	// Inserts and Deletes count the differential updates merged into
	// the rebuilt cracker array.
	Inserts, Deletes int
	// Rows is the shard's base row count after the merge.
	Rows int
	// Boundaries is the number of crack boundaries carried over into
	// the rebuilt index.
	Boundaries int
	// Epoch is the watermark merged into the base: every epoch up to
	// it is applied, every later one survives in the successor chain.
	Epoch int64
	// Epochs is the number of sealed epoch files the merge folded in.
	Epochs int
}

// ApplySealed group-applies shard i's sealed epochs into its cracker
// array: the shard's pieces are carried over into a successor array
// with every sealed epoch merged in (carryOver), the successor's table
// of contents is seeded with the old index's piece boundaries, and the
// shard map is republished with a successor that shares the ancestor's
// aggregates and forks the chain past the applied watermark. Reports
// false when no sealed epochs exist.
//
// Nobody blocks: readers holding the previous map keep using the old
// part (its sealed epochs stay visible through its own chain), and
// writers append to the open epoch throughout — the open epoch file is
// shared between the old and new chain, so a write racing the publish
// lands in both views. Nothing here needs logging: the merge changes
// structure, not contents, and the writes it folds in keep their
// logical records.
func (c *Column) ApplySealed(i int) (Applied, bool) {
	c.structMu.Lock()
	defer c.structMu.Unlock()
	return c.applySealedLocked(i)
}

// ApplyShard is the one-shot group-apply: seal shard i's open epoch,
// then merge every sealed epoch into the shard's rebuilt index.
// Reports false when the shard has no pending updates at all. Writers
// never park.
func (c *Column) ApplyShard(i int) (Applied, bool) {
	c.structMu.Lock()
	defer c.structMu.Unlock()
	m := c.m.Load()
	if i < 0 || i >= len(m.shards) {
		return Applied{}, false
	}
	m.shards[i].chain.Seal() // no-op when the open epoch is empty
	return c.applySealedLocked(i)
}

func (c *Column) applySealedLocked(i int) (Applied, bool) {
	m := c.m.Load()
	if i < 0 || i >= len(m.shards) {
		return Applied{}, false
	}
	p := m.shards[i]
	ins, del, watermark, sealed := p.chain.SealedSnapshot()
	if sealed == 0 {
		return Applied{}, false
	}
	t0 := time.Now()
	l := layout{vals: make([]int64, 0, max(0, p.baseRows()+len(ins)-len(del)))}
	p.carryOver(&l, ins, del)
	q := &part{
		loVal: p.loVal, hiVal: p.hiVal,
		agg:       p.agg, // shared: logical contents are unchanged
		chain:     p.chain.Fork(watermark),
		baseEpoch: watermark,
		replaced:  make(chan struct{}),
	}
	// Custom-source shards rebuild through the factory: refinement
	// earned by the old source is internal to it and is re-earned from
	// subsequent queries.
	q.setBase(l.vals, l.seeds, c.opts)
	c.publish(m, i, 1, []*part{q}, m.bounds)
	// No retire(): nothing parks on an epoch-chain apply. The old part
	// stays intact for readers (and stale writers) still holding it.
	c.opts.Obs.RecordStructural(metrics.EvApply, int32(i), time.Since(t0), int64(len(ins)+len(del)))
	return Applied{
		Shard: i, Inserts: len(ins), Deletes: len(del),
		Rows: len(l.vals), Boundaries: len(l.seeds),
		Epoch: watermark, Epochs: sealed,
	}, true
}

// Split describes one shard split (SplitShard).
type Split struct {
	// Shard is the ordinal of the split shard at the time of the split.
	Shard int
	// Cut is the new shard-map boundary: the left part keeps values
	// < Cut, the right part takes values >= Cut.
	Cut int64
	// LeftRows and RightRows are the resulting row counts.
	LeftRows, RightRows int
}

// SplitShard splits shard i at the median of its logical contents,
// publishing a shard map with one more shard. The full epoch chain is
// group-applied as part of the rebuild — a split cuts the chain
// consistently: both successors start with fresh, empty chains over
// bases that incorporate every pending write. The shard's pieces are
// carried over (carryOver); the cut becomes a boundary — only the one
// piece it falls into is partitioned — and each half keeps the pieces
// on its side, rebased to its own array (custom-source shards rebuild
// through the factory). Reports false when the shard cannot be split
// (fewer than two distinct values).
func (c *Column) SplitShard(i int) (Split, bool) {
	c.structMu.Lock()
	defer c.structMu.Unlock()
	m := c.m.Load()
	if i < 0 || i >= len(m.shards) {
		return Split{}, false
	}
	p := m.shards[i]
	// Cheap pre-check: a shard whose value envelope has collapsed to a
	// single value (a storm of one repeated key) can never be split.
	// Rejecting here keeps the rebalancer from sealing the hot shard
	// and merging its full contents on every maintenance pass.
	if p.agg.minA.Load() >= p.agg.maxA.Load() {
		return Split{}, false
	}
	t0 := time.Now()
	p.seal()
	var l layout
	p.logicalValues(&l)
	vals, seeds := l.vals, l.seeds
	cut, mn, mx, ok := chooseCut(vals, seeds)
	if !ok {
		// All remaining values are equal but the widen-only envelope
		// was stale (deletes removed the extrema). The part is sealed
		// — contents are stable — so tightening the envelope to the
		// actual min/max is safe and lets the pre-check above reject
		// the next attempt in O(1).
		if len(vals) > 0 {
			p.agg.minA.Store(mn)
			p.agg.maxA.Store(mx)
		}
		p.unseal()
		return Split{}, false
	}
	// Make the cut a boundary: partition the one piece it falls into
	// (nothing at all when an earlier crack already sits there).
	k := sort.Search(len(seeds), func(j int) bool { return seeds[j].Value >= cut })
	right := seeds[k:]
	edge := crackindex.BoundaryPosition{Value: cut}
	if len(right) > 0 && right[0].Value == cut {
		edge, right = right[0], right[1:]
	} else {
		var lo crackindex.BoundaryPosition
		hi := len(vals)
		if k > 0 {
			lo = seeds[k-1]
		}
		if k < len(seeds) {
			hi = seeds[k].Pos
		}
		n, below := cracker.Partition(vals[lo.Pos:hi], cut)
		edge.Pos, edge.Sum = lo.Pos+n, lo.Sum+below
	}
	pos := edge.Pos
	// Each half keeps the cut as an edge boundary (an empty edge
	// piece): queries clamped to the shard's range crack exactly there,
	// and finding the boundary in place spares them a partition pass.
	rseeds := append(make([]crackindex.BoundaryPosition, 0, len(right)+1), crackindex.BoundaryPosition{Value: cut})
	for _, b := range right {
		rseeds = append(rseeds, crackindex.BoundaryPosition{Value: b.Value, Pos: b.Pos - pos, Sum: b.Sum - edge.Sum})
	}
	lp := c.newPart(p.loVal, cut, vals[:pos:pos], append(seeds[:k:k], edge))
	rp := c.newPart(cut, p.hiVal, vals[pos:], rseeds)
	bounds := make([]int64, 0, len(m.bounds)+1)
	bounds = append(bounds, m.bounds[:i]...)
	bounds = append(bounds, cut)
	bounds = append(bounds, m.bounds[i:]...)
	c.publish(m, i, 1, []*part{lp, rp}, bounds)
	p.retire()
	c.opts.Obs.RecordStructural(metrics.EvSplit, int32(i), time.Since(t0), int64(len(vals)))
	return Split{Shard: i, Cut: cut, LeftRows: pos, RightRows: len(vals) - pos}, true
}

// chooseCut picks the median value of vals as a split cut, adjusted so
// both sides are non-empty, and returns the value envelope alongside.
// Reports false when vals holds fewer than two distinct values. The
// piece table narrows the selection to the one piece holding the median
// position — pieces are range-partitioned, so the median of the whole
// is the right rank inside that piece — and only that piece is sorted.
func chooseCut(vals []int64, seeds []crackindex.BoundaryPosition) (cut, mn, mx int64, ok bool) {
	if len(vals) < 2 {
		if len(vals) == 1 {
			mn, mx = vals[0], vals[0]
		}
		return 0, mn, mx, false
	}
	mn, mx, _ = envelope(vals, seeds)
	mid := len(vals) / 2
	k := sort.Search(len(seeds), func(j int) bool { return seeds[j].Pos > mid })
	lo, hi := 0, len(vals)
	if k > 0 {
		lo = seeds[k-1].Pos
	}
	if k < len(seeds) {
		hi = seeds[k].Pos
	}
	piece := slices.Clone(vals[lo:hi])
	slices.Sort(piece)
	if cut = piece[mid-lo]; cut > mn {
		return cut, mn, mx, true
	}
	// Degenerate lower half (duplicates of the minimum): cut at the
	// first larger value so the left side keeps the minimum run.
	cut, ok = mx, mx > mn
	for _, v := range vals {
		if v > mn && v < cut {
			cut = v
		}
	}
	return cut, mn, mx, ok
}

// Merged describes one merge of two adjacent shards (MergeShards).
type Merged struct {
	// Shard is the ordinal of the left shard at the time of the merge.
	Shard int
	// RemovedBound is the shard-map cut value the merge removed.
	RemovedBound int64
	// Rows is the merged shard's row count.
	Rows int
}

// MergeShards merges adjacent shards i and i+1 into one, publishing a
// shard map with one fewer shard. Both epoch chains are cut
// consistently — every pending write of either side is folded into the
// merged base, and the successor starts a fresh chain — and the merged
// index is the two piece tables concatenated (carryOver twice into one
// array) with the removed cut kept as a boundary between them, so no
// refinement knowledge is lost. Reports false when i is out of range.
func (c *Column) MergeShards(i int) (Merged, bool) {
	c.structMu.Lock()
	defer c.structMu.Unlock()
	m := c.m.Load()
	if i < 0 || i+1 >= len(m.shards) {
		return Merged{}, false
	}
	l, r := m.shards[i], m.shards[i+1]
	t0 := time.Now()
	l.seal()
	r.seal()
	both := layout{vals: make([]int64, 0, l.agg.rows.Load()+r.agg.rows.Load())}
	l.logicalValues(&both)
	both.cut(m.bounds[i])
	r.logicalValues(&both)
	// Both sides may have recorded the cut themselves (the left as its
	// top edge, the right as its bottom edge): the merged table needs
	// it once.
	vals := both.vals
	seeds := slices.CompactFunc(both.seeds, func(a, b crackindex.BoundaryPosition) bool { return a.Value == b.Value })
	q := c.newPart(l.loVal, r.hiVal, vals, seeds)
	bounds := make([]int64, 0, len(m.bounds)-1)
	bounds = append(bounds, m.bounds[:i]...)
	bounds = append(bounds, m.bounds[i+1:]...)
	c.publish(m, i, 2, []*part{q}, bounds)
	l.retire()
	r.retire()
	c.opts.Obs.RecordStructural(metrics.EvMerge, int32(i), time.Since(t0), int64(len(vals)))
	return Merged{Shard: i, RemovedBound: m.bounds[i], Rows: len(vals)}, true
}
