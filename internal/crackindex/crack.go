package crackindex

import (
	"context"
	"slices"
	"time"

	"adaptix/internal/cracker"
	"adaptix/internal/directory"
	"adaptix/internal/latch"
)

// opCtx carries the per-operation cost accumulator, the query tag used
// by the trace hook (Figure 8 timelines), and the caller's context: a
// nil ctx means context.Background semantics (never cancelled), and the
// first context error observed while parked on a latch is recorded in
// err so the query paths can abandon remaining work promptly.
type opCtx struct {
	tag string
	ctx context.Context
	err error
	OpStats
}

// bound is a crack boundary as a query reads it off its directory
// entry: array position and prefix sum. Later cracks only subdivide
// pieces and permute rows inside them, so a bound never changes once it
// exists and is read without a latch.
type bound struct {
	pos int
	sum int64
}

func boundOf(r directory.Ref) bound { return bound{r.Pos(), r.Sum()} }

// crackBound ensures a crack boundary exists at value v and returns it:
// every value at a position < pos is < v, every value at a position
// >= pos is >= v, and sum is the sum of the former. p is the entry a
// directory lookup found for v (its floor) — possibly stale by now, the
// loop below re-determines — or the zero Ref to look it up here.
//
// In LatchPiece mode this implements the full protocol of §5.3: find
// the piece in the directory, block on (or, under conflict avoidance,
// try) the piece's write latch, re-determine the bound after waking up
// if the piece was split in the meantime (Figure 10: the piece's extent
// is re-read from the current directory once the latch is held), refine,
// publish the cuts. In the exclusive modes (LatchColumn: the caller
// holds the column write latch; LatchNone: single-threaded) the piece
// latch is not taken and the loop runs once.
//
// ok is false only when refinement was forgone (conflict avoidance or
// a conflicting user-transaction lock).
func (ix *Index) crackBound(p directory.Ref, v int64, ctx *opCtx) (at bound, ok bool) {
	if !p.OK() {
		p = ix.dir.Floor(v)
	}
	for {
		// Exact match: the boundary already exists (v == maxKey always
		// matches the tail sentinel: the "boundary" is the array end).
		// Entries are immutable, so no latch is needed for this check or
		// the returned bound.
		if p.Key() == v {
			return boundOf(p), true
		}
		l, granted := ix.pieceWriteLock(p, v, ctx)
		if !granted {
			return bound{}, false
		}
		// Re-determine under the latch: the piece may have been cut
		// below v while this query waited (Figure 10). p.Key() < v still
		// holds: a piece never loses its starting boundary.
		h := ix.pin(p, l)
		if v < h.hiVal() {
			at, _, _ = ix.refine(h, v, v, false, ctx)
			ix.pieceWriteUnlock(ctx, h)
			return at, true
		}
		ix.pieceWriteUnlock(ctx, h)
		ix.stats.Redeterminations.Inc()
		p = ix.dir.Floor(v)
	}
}

// auxMinPiece is the piece size, in rows, from which a crack also cuts
// the piece at sampled quantiles: 16 Ki rows, about what stays resident
// in L2 while it is partitioned. Below it a crack costs microseconds
// whatever the workload does and extra boundaries would only grow the
// table of contents. It is a constant, not an option: swept over
// 1 Ki / 4 Ki / 16 Ki / 64 Ki, the sequential adversary runs within a
// tenth of its best up to 16 Ki and a quarter slower at 64 Ki, and the
// mixed read/write workload pays for the extra pieces below 16 Ki.
//
// The two piece sizes of the product relate thus: shard's build lays a
// fresh column out in pieces of about its pieceTarget (1 Ki rows), the
// widest of them about twice that, so a fresh column's cracks never reach
// auxMinPiece and add no auxiliary cuts. Only a piece that writes have
// grown to 16× the target takes them — which is why the target must
// stay below half of auxMinPiece.
const auxMinPiece = 16 << 10

// refine is the one refinement step every crack goes through. p is held
// exclusively (its write latch in LatchPiece mode) and the required
// bounds a <= b fall strictly inside it (a == b: one bound). One pivot
// set is assembled —
//
//   - the required bounds;
//   - under GroupCracking, the bounds of every crack queued on p (§7
//     "dynamic algorithms": the waiters find their boundary in place
//     when granted the latch);
//   - when p holds at least auxMin rows, three quantiles of its values,
//     estimated from nine values at hashed positions (the robustness of
//     stochastic cracking [16]: whatever bounds the workload asks for,
//     a large piece is cut into near-quarters, so the piece ahead of a
//     sequential sweep shrinks geometrically and no latch is long-held
//     twice). Quantiles, not one random pivot: a single draw leaves up
//     to the whole far side uncut, and a sweep never touches the far
//     side again. The hash makes the positions deterministic per piece
//     state, so a replayed workload rebuilds the same index;
//
// — then partitioned in one multi-pivot pass and published as ONE
// directory publish under the publishers' mutex: all cuts fall inside p,
// hence into one chunk, which is copied once with every cut merged in,
// each boundary with its prefix sum (p's own plus what the pass summed
// below the pivot). keepMiddle (LatchPiece only) returns the piece
// between the two required bounds write-latched — its entry is born
// with an already-held latch, so nobody can reach it first — for the
// §3.3 downgrade; it must then be exactly the qualifying range, so an
// optional pivot inside [a, b] is dropped. That costs no robustness: the
// caller is about to read every row of that piece anyway. Without
// keepMiddle such pivots stay, which is what keeps a zoom-in of ever
// narrower nested counts from re-partitioning the whole middle every
// time.
//
// Safety of the publish: a reader sees the chunk before or after it,
// never part of it; and the new pieces lie inside p, whose latch the
// caller holds exclusively, so whoever needs their extent waits on p's
// latch or re-reads the directory after it.
func (ix *Index) refine(p piece, a, b int64, keepMiddle bool, ctx *opCtx) (atA, atB bound, mid piece) {
	start := time.Now()
	lo, hi := p.lo(), p.hi()
	ctx.Touched += int64(hi - lo)
	var (
		pvBuf  [5]int64 // two bounds and three quantiles: no allocation without waiters
		posBuf [5]cracker.Split
		cutBuf [5]directory.Entry
		sample []int64
		held   *latch.Latch // the middle piece's latch, taken before the piece exists
	)
	pv := append(pvBuf[:0], a)
	if b != a {
		pv = append(pv, b)
	}
	required := len(pv)
	if ix.opts.GroupCracking && ix.opts.Latching == LatchPiece {
		pv = p.latch.WaiterBounds(pv)
	}
	waiters := len(pv)
	if hi-lo >= ix.auxMin {
		s := ix.samplePiece(lo, hi)
		sample = s[:]
		pv = append(pv, s[2], s[4], s[6])
	}
	kept := pv[:required]
	var grouped, aux int64
	for i, v := range pv[required:] {
		if v <= p.loVal() || v >= p.hiVal() || (keepMiddle && a <= v && v <= b) || slices.Contains(kept, v) {
			continue
		}
		kept = append(kept, v)
		if required+i < waiters {
			grouped++
		} else {
			aux++
		}
	}
	pv = kept
	slices.Sort(pv)
	if grouped > 0 {
		ix.stats.GroupCracks.Inc()
		ix.stats.GroupedBounds.Add(grouped)
	}
	if aux > 0 {
		ix.stats.AuxCuts.Add(aux)
	}
	pos := posBuf[:]
	if len(pv) > len(pos) {
		pos = make([]cracker.Split, len(pv))
	}
	ix.arr.CrackMulti(lo, hi, pv, pos, sample)
	cuts := cutBuf[:0]
	for i, v := range pv {
		e := directory.Entry{Key: v, Pos: pos[i].Pos, Sum: p.at.Sum() + pos[i].Sum}
		if v == a {
			atA = bound{e.Pos, e.Sum}
			if keepMiddle && a != b {
				held = ix.newLatch()
				held.TryLock() // cannot fail: nobody can reach the piece yet
				e.Latch = held
			}
		}
		if v == b {
			atB = bound{e.Pos, e.Sum}
		}
		cuts = append(cuts, e)
	}
	ix.publish(cuts)
	if held != nil {
		mid = ix.pin(ix.dir.Floor(a), held)
	}
	d := time.Since(start)
	ctx.Refine += d
	ix.stats.CrackTime.Add(d)
	ix.stats.Cracks.Inc()
	ix.trace(ctx, TraceCracked, p.at, a)
	return atA, atB, mid
}

// samplePiece returns nine values of the piece [lo, hi) from hashed
// positions, sorted. The xorshifted hash of the piece's extent keeps the
// positions deterministic per piece state yet well spread, whatever
// physical order earlier partition passes left behind. Caller holds the
// piece exclusively; it is not empty.
func (ix *Index) samplePiece(lo, hi int) (s [9]int64) {
	h := uint64(lo)*0x9e3779b97f4a7c15 + uint64(hi)*0xbf58476d1ce4e5b9
	n := uint64(hi - lo)
	for i := range s {
		h ^= h >> 29
		h *= 0xff51afd7ed558ccd
		s[i] = ix.arr.Value(lo + int(h%n))
	}
	slices.Sort(s[:])
	return s
}

// pieceWriteLock acquires the write latch of the piece starting at p
// according to the conflict policy, recording wait time and conflicts,
// and returns it. It consults the user-lock probe first: a system
// transaction must verify that no concurrent user transaction holds
// conflicting locks and, refinement being optional, it simply forgoes
// the work if one does (§3.3). In the exclusive modes the caller already
// excludes every other thread and there is nothing to acquire (nil, true).
func (ix *Index) pieceWriteLock(p directory.Ref, bound int64, ctx *opCtx) (*latch.Latch, bool) {
	if ix.opts.Latching != LatchPiece {
		return nil, true
	}
	if ix.opts.LockProbe != nil && ix.opts.LockProbe() {
		ctx.Skipped = true
		ix.stats.Skipped.Inc()
		return nil, false
	}
	ix.trace(ctx, TraceWantWrite, p, bound)
	l := ix.latchOf(p)
	if ix.opts.OnConflict == Skip {
		if !l.TryLock() {
			ctx.Conflicts++
			ctx.Skipped = true
			ix.stats.Conflicts.Inc()
			ix.stats.Skipped.Inc()
			return nil, false
		}
		ix.trace(ctx, TraceAcquireWrite, p, 0)
		return l, true
	}
	if w, err := l.LockCtx(ctx.ctx, bound); !ix.waited(ctx, w, err) {
		return nil, false
	}
	ix.trace(ctx, TraceAcquireWrite, p, 0)
	return l, true
}

// waited books the wait of one blocking latch acquisition against the
// operation and the index. It reports false when the deadline expired or
// the query was cancelled while parked: the latch was never acquired,
// and the query abandons its optional refinement and its answer alike.
func (ix *Index) waited(ctx *opCtx, w time.Duration, err error) bool {
	ctx.addWait(w)
	if w > 0 {
		ix.stats.Conflicts.Inc()
		ix.stats.WaitTime.Add(w)
	}
	if err != nil {
		ctx.err = err
	}
	return err == nil
}

func (ix *Index) pieceWriteUnlock(ctx *opCtx, p piece) {
	if p.latch == nil {
		return
	}
	ix.trace(ctx, TraceReleaseWrite, p.at, 0)
	p.latch.Unlock()
}

// pieceReadLock acquires the read latch of the piece starting at p,
// recording wait time, and returns the piece pinned. Aggregation reads
// are never skipped: they are required for the answer, and they conflict
// only with an active crack of this piece. It reports false only when
// the operation's context expired while parked — the answer is
// abandoned, not merely unrefined.
func (ix *Index) pieceReadLock(p directory.Ref, ctx *opCtx) (piece, bool) {
	ix.trace(ctx, TraceWantRead, p, 0)
	l := ix.latchOf(p)
	if w, err := l.RLockCtx(ctx.ctx); !ix.waited(ctx, w, err) {
		return piece{}, false
	}
	ix.trace(ctx, TraceAcquireRead, p, 0)
	return ix.pin(p, l), true
}

func (ix *Index) pieceReadUnlock(ctx *opCtx, p piece) {
	ix.trace(ctx, TraceReleaseRead, p.at, 0)
	p.latch.RUnlock()
}

// crackPair ensures boundaries exist at both lo and hi, in one refine
// step when both bounds fall into the same piece, and returns them. If
// keepMiddle is true (LatchPiece mode only) and the single-step path
// was taken, the piece holding exactly the qualifying range is returned
// still write-latched so the caller may downgrade it and aggregate in
// place; otherwise mid is nil.
//
// One latch-free visit to the table of contents looks up both bounds.
// When both boundaries exist — every query on a converged index — that
// visit is the whole query: two binary searches over an immutable
// version, no mutex, no latch. Otherwise the entries go to the cracking
// protocol, whose re-determination covers a split between this lookup
// and the latch just as it covers one during the wait.
//
// ok is false only when refinement was skipped (the caller then
// answers by scanning); it is always true in the exclusive modes.
func (ix *Index) crackPair(lo, hi int64, keepMiddle bool, ctx *opCtx) (atLo, atHi bound, mid piece, ok bool) {
	p, q := ix.dir.Floor2(lo, hi)
	if p.Key() == lo && q.Key() == hi {
		return boundOf(p), boundOf(q), piece{}, true
	}
	if p.Key() < lo && q.Key() == p.Key() { // both strictly inside one piece
		l, granted := ix.pieceWriteLock(p, lo, ctx)
		if !granted {
			return bound{}, bound{}, piece{}, false
		}
		// Still strictly inside p? It may have been split while this
		// query waited; the bounds then no longer share a piece and are
		// cracked independently below.
		h := ix.pin(p, l)
		same := hi < h.hiVal()
		if same {
			atLo, atHi, mid = ix.refine(h, lo, hi, keepMiddle, ctx)
		}
		ix.pieceWriteUnlock(ctx, h)
		if same {
			return atLo, atHi, mid, true
		}
		p, q = directory.Ref{}, directory.Ref{} // split while waiting: look both up again rather than queue on p's latch to find out
	}

	if ix.opts.ParallelBounds && ix.opts.Latching == LatchPiece {
		// The two cracking actions are independent when they operate
		// on different pieces, and may be performed concurrently
		// (§5.3 "Optimizations"). Even if a concurrent split moves
		// both bounds into one piece, each crackBound is individually
		// correct. If one bound's refinement is skipped under
		// conflict avoidance, the other still proceeds ("even if
		// there is a conflict for one of them the query actually
		// proceeds with the second bound").
		type res struct {
			at bound
			ok bool
			st opCtx
		}
		ch := make(chan res, 1)
		// Capture the tag and context values, not ctx itself: a
		// goroutine closure holding the *opCtx would force every
		// caller's opCtx to the heap — one allocation per query on
		// all paths, including the ones that never spawn a goroutine.
		tag, cctx := ctx.tag, ctx.ctx
		go func() {
			sub := opCtx{tag: tag, ctx: cctx}
			at, ok := ix.crackBound(q, hi, &sub)
			ch <- res{at, ok, sub}
		}()
		atLo, okLo := ix.crackBound(p, lo, ctx)
		r := <-ch
		ctx.Wait += r.st.Wait
		ctx.Refine += r.st.Refine
		ctx.Touched += r.st.Touched
		ctx.Conflicts += r.st.Conflicts
		ctx.Skipped = ctx.Skipped || r.st.Skipped
		if ctx.err == nil {
			ctx.err = r.st.err
		}
		if !okLo || !r.ok {
			return bound{}, bound{}, piece{}, false
		}
		return atLo, r.at, piece{}, true
	}

	atLo, okLo := ix.crackBound(p, lo, ctx)
	if !okLo {
		return bound{}, bound{}, piece{}, false
	}
	atHi, okHi := ix.crackBound(q, hi, ctx)
	if !okHi {
		return bound{}, bound{}, piece{}, false
	}
	return atLo, atHi, piece{}, true
}
