package crackindex

import (
	"context"
	"iter"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/directory"
)

// tagKey keys the query tag carried by a context (WithTag).
type tagKey struct{}

// WithTag returns a context carrying a query tag: CountCtx / SumCtx
// label their trace events with it (the Figure 8 timeline labels). The
// tag rides the context so it survives the fan-out executor and the
// engine adapters without widening any signature.
func WithTag(ctx context.Context, tag string) context.Context {
	return context.WithValue(ctx, tagKey{}, tag)
}

// Tag returns the query tag ctx carries ("" when none) — the same tag
// WithTag attached. The workload recorder (internal/wcapture) stamps
// it into captured records via the shard executor.
func Tag(ctx context.Context) string {
	t, _ := ctx.Value(tagKey{}).(string)
	return t
}

// Count executes query type Q1 of the paper's §6 —
// select count(*) from R where lo <= A < hi — cracking the column as a
// side effect. It returns the count and the operation's cost breakdown;
// it is CountCtx under context.Background, untagged, which never fails.
func (ix *Index) Count(lo, hi int64) (int64, OpStats) {
	n, st, _ := ix.answer(nil, false, lo, hi)
	return n, st
}

// CountCtx is Count bounded by a context: cancellation before any work
// returns ctx.Err() with no refinement side effects, and a deadline
// expiring while the query is parked on a piece latch unparks it
// promptly. A query that returns a non-nil error returns no answer.
// Trace events carry the query tag of ctx (WithTag).
func (ix *Index) CountCtx(ctx context.Context, lo, hi int64) (int64, OpStats, error) {
	return ix.answer(ctx, false, lo, hi)
}

// answer runs one aggregate under the context contract CountCtx and
// SumCtx share. A nil ctx is context.Background without a tag (see
// opCtx): the plain Count and Sum pass it and skip two interface calls.
func (ix *Index) answer(ctx context.Context, wantSum bool, lo, hi int64) (int64, OpStats, error) {
	oc := opCtx{ctx: ctx}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, oc.OpStats, err
		}
		oc.tag = Tag(ctx)
	}
	var v int64
	if wantSum {
		v = ix.sum(&oc, lo, hi)
	} else {
		v = ix.count(&oc, lo, hi)
	}
	if oc.err != nil {
		return 0, oc.OpStats, oc.err
	}
	return v, oc.OpStats, nil
}

// count computes Count. On a context error (oc.err set) the partial
// result is meaningless and must be discarded by the caller.
func (ix *Index) count(oc *opCtx, lo, hi int64) int64 {
	if lo >= hi {
		return 0
	}
	ix.ensureInit(oc)
	switch ix.opts.Latching {
	case LatchColumn:
		if ix.opts.OnConflict == Skip {
			if !ix.tryColumnWrite(oc) {
				return ix.fallbackScan(false, lo, hi, oc)
			}
		} else if !ix.columnWriteLock(lo, oc) {
			return 0
		}
		atLo, atHi, _, _ := ix.crackPair(lo, hi, false, oc)
		ix.columnWriteUnlock(oc)
		return int64(atHi.pos - atLo.pos)
	case LatchNone:
		atLo, atHi, _, _ := ix.crackPair(lo, hi, false, oc)
		return int64(atHi.pos - atLo.pos)
	default: // LatchPiece
		atLo, atHi, _, ok := ix.crackPair(lo, hi, false, oc)
		if !ok {
			if oc.err != nil {
				return 0
			}
			return ix.fallbackScan(false, lo, hi, oc)
		}
		// Boundary positions are permanent: once both bounds are
		// cracked, the count is derived purely from the index
		// structure, with no further latching (the "continuously
		// reduced conflicts" effect of §5.3).
		return int64(atHi.pos - atLo.pos)
	}
}

// Peek answers Count and Sum over [lo, hi) from the table of contents
// alone when both bounds are boundaries already — the converged case —
// and reports ok false, having done nothing, otherwise: no refinement,
// no latch, no trace event, not even a cost breakdown to fill in. It is
// for callers that would rather decide where to run a query than run it
// (the shard fan-out answers the hits inline and hands only the misses
// to workers). It declines whenever Count and Sum would do more than
// read two entries: outside LatchPiece mode, whose baselines latch and
// scan by design.
func (ix *Index) Peek(lo, hi int64) (count, sum int64, ok bool) {
	if ix.opts.Latching != LatchPiece || !ix.initDone.Load() {
		return 0, 0, false
	}
	if lo >= hi {
		return 0, 0, true
	}
	p, q := ix.dir.Floor2(lo, hi)
	if p.Key() != lo || q.Key() != hi {
		return 0, 0, false
	}
	return int64(q.Pos() - p.Pos()), q.Sum() - p.Sum(), true
}

// Sum executes query type Q2 —
// select sum(A) from R where lo <= A < hi — cracking the column as a
// side effect. Under piece latches the answer is the difference of the
// two boundaries' prefix sums; the baseline modes aggregate the range
// under the column read latch (LatchColumn) or unlatched (LatchNone).
// Like Count, it is SumCtx under context.Background, untagged.
func (ix *Index) Sum(lo, hi int64) (int64, OpStats) {
	s, st, _ := ix.answer(nil, true, lo, hi)
	return s, st
}

// SumCtx is Sum bounded by a context (see CountCtx for the semantics).
func (ix *Index) SumCtx(ctx context.Context, lo, hi int64) (int64, OpStats, error) {
	return ix.answer(ctx, true, lo, hi)
}

// sum computes Sum (see count for the context-error contract).
//
// LatchColumn and LatchNone keep the paper's Figure 8 (top) protocol
// verbatim — crack, then aggregate the range under the column read
// latch, or with no concurrency control — although their boundaries
// carry prefix sums too: they are the baselines of Figures 13 and 14,
// which measure precisely the cost of aggregating under a column latch.
func (ix *Index) sum(oc *opCtx, lo, hi int64) int64 {
	if lo >= hi {
		return 0
	}
	ix.ensureInit(oc)
	switch ix.opts.Latching {
	case LatchColumn:
		if ix.opts.OnConflict == Skip {
			if !ix.tryColumnWrite(oc) {
				return ix.fallbackScan(true, lo, hi, oc)
			}
		} else if !ix.columnWriteLock(lo, oc) {
			return 0
		}
		atLo, atHi, _, _ := ix.crackPair(lo, hi, false, oc)
		ix.columnWriteUnlock(oc)
		// The aggregation operator runs under a separate read latch:
		// multiple aggregations proceed in parallel, but no cracking
		// can happen meanwhile (Figure 8, top).
		if !ix.columnReadLock(oc) {
			return 0
		}
		oc.Touched += int64(atHi.pos - atLo.pos)
		s := ix.arr.Sum(atLo.pos, atHi.pos)
		ix.columnReadUnlock(oc)
		return s
	case LatchNone:
		atLo, atHi, _, _ := ix.crackPair(lo, hi, false, oc)
		oc.Touched += int64(atHi.pos - atLo.pos)
		return ix.arr.Sum(atLo.pos, atHi.pos)
	default: // LatchPiece
		atLo, atHi, mid, ok := ix.crackPair(lo, hi, true, oc)
		if !ok {
			if oc.err != nil {
				return 0
			}
			return ix.fallbackScan(true, lo, hi, oc)
		}
		if mid.latch != nil {
			// Crack-in-three path: the middle piece holds exactly the
			// qualifying range and is still write-latched; downgrade
			// to a read latch and aggregate in place (§3.3).
			ix.trace(oc, TraceDowngraded, mid.at, 0)
			mid.latch.Downgrade()
			oc.Touched += int64(atHi.pos - atLo.pos)
			s := ix.arr.Sum(atLo.pos, atHi.pos)
			ix.pieceReadUnlock(oc, mid)
			return s
		}
		// Prefix sums are as permanent as positions: like the count,
		// the sum is read off the two boundaries — no piece latched, no
		// row visited, however wide the range.
		return atHi.sum - atLo.sum
	}
}

// SelectRowIDs executes the select operator of the Figure 6 plan:
// it returns the base-table row ids of all values in [lo, hi),
// cracking the column as a side effect. The result order follows the
// current physical order of the cracker array. It panics on a NewOwned
// index, which stores values only: build with New to keep row ids.
func (ix *Index) SelectRowIDs(lo, hi int64) ([]uint32, OpStats) {
	if !ix.HasRowIDs() {
		panic("crackindex: SelectRowIDs on a value-only NewOwned index: build with crackindex.New to keep row ids")
	}
	ctx := opCtx{}
	if lo >= hi {
		return nil, ctx.OpStats
	}
	ix.ensureInit(&ctx)
	switch ix.opts.Latching {
	case LatchColumn:
		if ix.opts.OnConflict == Skip {
			if !ix.tryColumnWrite(&ctx) {
				return ix.fallbackCollect(lo, hi, &ctx), ctx.OpStats
			}
		} else {
			ix.columnWriteLock(lo, &ctx)
		}
		atLo, atHi, _, _ := ix.crackPair(lo, hi, false, &ctx)
		ix.columnWriteUnlock(&ctx)
		ix.columnReadLock(&ctx)
		ids := ix.arr.AppendRowIDs(make([]uint32, 0, atHi.pos-atLo.pos), atLo.pos, atHi.pos)
		ix.columnReadUnlock(&ctx)
		return ids, ctx.OpStats
	case LatchNone:
		atLo, atHi, _, _ := ix.crackPair(lo, hi, false, &ctx)
		return ix.arr.AppendRowIDs(make([]uint32, 0, atHi.pos-atLo.pos), atLo.pos, atHi.pos), ctx.OpStats
	default:
		atLo, atHi, mid, ok := ix.crackPair(lo, hi, true, &ctx)
		if !ok {
			return ix.fallbackCollect(lo, hi, &ctx), ctx.OpStats
		}
		if mid.latch != nil {
			ix.trace(&ctx, TraceDowngraded, mid.at, 0)
			mid.latch.Downgrade()
			ids := ix.arr.AppendRowIDs(make([]uint32, 0, atHi.pos-atLo.pos), atLo.pos, atHi.pos)
			ix.pieceReadUnlock(&ctx, mid)
			return ids, ctx.OpStats
		}
		ids := make([]uint32, 0, atHi.pos-atLo.pos)
		for p := range ix.pieces(lo, hi, &ctx) { // they tile [atLo.pos, atHi.pos) exactly: both bounds are boundaries
			ctx.Touched += int64(p.hi() - p.lo())
			ids = ix.arr.AppendRowIDs(ids, p.lo(), p.hi())
		}
		return ids, ctx.OpStats
	}
}

// ensureInit lazily builds the cracker array on the first query
// touching the index. The initializing query charges the copy to its
// refinement time; queries that block behind it charge wait time
// (compare Figure 15's expensive first query).
func (ix *Index) ensureInit(ctx *opCtx) {
	if ix.initDone.Load() {
		return
	}
	start := time.Now()
	ix.mu.Lock()
	if ix.initDone.Load() {
		ix.mu.Unlock()
		ctx.addWait(time.Since(start))
		return
	}
	locked := time.Now()
	arr := cracker.New(ix.base, ix.opts.Layout)
	ix.install(arr, []directory.Entry{{Key: minKey}, {Key: maxKey, Pos: arr.Len(), Sum: arr.Sum(0, arr.Len())}})
	ix.stats.InitTime.Add(time.Since(locked))
	ix.mu.Unlock()
	d := time.Since(start)
	ctx.Refine += d
	ctx.Touched += int64(len(ix.base))
	ix.stats.CrackTime.Add(d)
}

// pieces yields, in key order and pinned, the pieces holding the values
// of [lo, hi). In LatchPiece mode each piece is yielded under its own
// read latch, held for the loop body only; in the other modes the caller
// holds the column latch or runs single-threaded. The walk ends early
// when the operation's context expires while parked (ctx.err set; the
// caller discards what it gathered).
func (ix *Index) pieces(lo, hi int64, ctx *opCtx) iter.Seq[piece] {
	return func(yield func(piece) bool) {
		for p := ix.dir.Floor(lo); p.Key() < hi; { // the tail sentinel's maxKey ends it at the latest
			h := ix.pin(p, nil)
			if ix.opts.Latching == LatchPiece {
				var ok bool
				if h, ok = ix.pieceReadLock(p, ctx); !ok {
					return
				}
			}
			more := yield(h)
			if h.latch != nil {
				ix.pieceReadUnlock(ctx, h)
			}
			if !more {
				return
			}
			p = h.next
		}
	}
}

// WalkPieces visits every piece in key order, handing visit the piece's
// value bounds [loVal, hiVal) and a read-only view of its values in
// physical order (cracker.Array.View: valid only until visit returns).
// It is the export side of a structure-preserving rebuild: the visitor
// copies each piece into a successor array and records where it starts,
// so the piece table carries over without one partition pass.
//
// The walk runs under the same latches as an aggregation and so never
// stops the index: in LatchPiece mode each piece is visited under its
// own read latch, one at a time, while queries keep reading and
// cracking every other piece; in LatchColumn mode the whole walk holds
// the column read latch; LatchNone takes none. A crack that splits a
// piece the walk has already passed is simply not seen — the visitor
// got that piece whole, which is a coarser but equally valid partition.
// The multiset the walk delivers is always the full column: cracks only
// permute values inside one write-latched piece.
func (ix *Index) WalkPieces(visit func(loVal, hiVal int64, vals []int64)) {
	oc := opCtx{}
	ix.ensureInit(&oc)
	var vals []int64 // doubles as the pairs layout's gather buffer, reused across pieces
	if ix.opts.Latching == LatchColumn {
		ix.columnReadLock(&oc)
		defer ix.columnReadUnlock(&oc)
	}
	for p := range ix.pieces(minKey, maxKey, &oc) { // no context to expire: the walk is complete
		vals = ix.arr.View(p.lo(), p.hi(), vals)
		visit(p.loVal(), p.hiVal(), vals)
	}
}

// fallbackScan answers a query without refining the index: the optional
// crack was forgone (conflict avoidance), so the answer is computed by
// predicate scans over the pieces overlapping [lo, hi) — each under its
// read latch, or all under the column read latch. Pieces fully covered
// by the predicate are answered from their two boundaries, without a
// scan.
func (ix *Index) fallbackScan(wantSum bool, lo, hi int64, ctx *opCtx) int64 {
	if ix.opts.Latching == LatchColumn {
		if !ix.columnReadLock(ctx) {
			return 0
		}
		defer ix.columnReadUnlock(ctx)
	}
	var res int64
	for p := range ix.pieces(lo, hi, ctx) {
		switch covered := p.loVal() >= lo && p.hiVal() <= hi; {
		case covered && wantSum:
			res += p.next.Sum() - p.at.Sum()
		case covered:
			res += int64(p.hi() - p.lo())
		case wantSum:
			ctx.Touched += int64(p.hi() - p.lo())
			res += ix.arr.ScanSum(p.lo(), p.hi(), lo, hi)
		default:
			ctx.Touched += int64(p.hi() - p.lo())
			res += ix.arr.ScanCount(p.lo(), p.hi(), lo, hi)
		}
	}
	return res
}

// fallbackCollect collects the qualifying rowIDs without refinement,
// under the same latches as fallbackScan.
func (ix *Index) fallbackCollect(lo, hi int64, ctx *opCtx) []uint32 {
	if ix.opts.Latching == LatchColumn {
		if !ix.columnReadLock(ctx) {
			return nil
		}
		defer ix.columnReadUnlock(ctx)
	}
	var ids []uint32
	for p := range ix.pieces(lo, hi, ctx) {
		ids = ix.arr.AppendRowIDsWhere(ids, p.lo(), p.hi(), lo, hi)
	}
	return ids
}

// Column-latch helpers (LatchColumn mode). The write/read acquisitions
// report false only when the operation's context expired while parked
// (the latch is then not held).

func (ix *Index) columnWriteLock(bound int64, ctx *opCtx) bool {
	ix.trace(ctx, TraceWantWrite, directory.Ref{}, bound)
	if w, err := ix.colLatch.LockCtx(ctx.ctx, bound); !ix.waited(ctx, w, err) {
		return false
	}
	ix.trace(ctx, TraceAcquireWrite, directory.Ref{}, 0)
	return true
}

func (ix *Index) tryColumnWrite(ctx *opCtx) bool {
	ix.trace(ctx, TraceWantWrite, directory.Ref{}, 0)
	if !ix.colLatch.TryLock() {
		ctx.Conflicts++
		ctx.Skipped = true
		ix.stats.Conflicts.Inc()
		ix.stats.Skipped.Inc()
		return false
	}
	ix.trace(ctx, TraceAcquireWrite, directory.Ref{}, 0)
	return true
}

func (ix *Index) columnWriteUnlock(ctx *opCtx) {
	ix.trace(ctx, TraceReleaseWrite, directory.Ref{}, 0)
	ix.colLatch.Unlock()
}

func (ix *Index) columnReadLock(ctx *opCtx) bool {
	ix.trace(ctx, TraceWantRead, directory.Ref{}, 0)
	if w, err := ix.colLatch.RLockCtx(ctx.ctx); !ix.waited(ctx, w, err) {
		return false
	}
	ix.trace(ctx, TraceAcquireRead, directory.Ref{}, 0)
	return true
}

func (ix *Index) columnReadUnlock(ctx *opCtx) {
	ix.trace(ctx, TraceReleaseRead, directory.Ref{}, 0)
	ix.colLatch.RUnlock()
}
