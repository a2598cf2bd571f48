package crackindex

import (
	"context"
	"slices"
	"time"

	"adaptix/internal/cracker"
)

// opCtx carries the per-operation cost accumulator, the query tag used
// by the trace hook (Figure 8 timelines), and the caller's context: a
// nil ctx means context.Background semantics (never cancelled), and the
// first context error observed while parked on a latch is recorded in
// err so the query paths can abandon remaining work promptly. replay
// marks the replay of a recorded boundary (CrackAt): the crack adds
// that boundary and nothing else.
type opCtx struct {
	tag    string
	ctx    context.Context
	err    error
	replay bool
	OpStats
}

// canceled reports whether the operation's context is done, latching
// the error into err on first observation.
func (c *opCtx) canceled() bool {
	if c.err != nil {
		return true
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return true
		}
	}
	return false
}

// bound is a crack boundary as a query reads it off the piece starting
// there: array position (piece.lo) and prefix sum (piece.loSum). Later
// cracks only subdivide pieces and permute rows inside them, so a bound
// never changes once it exists and is read without a latch.
type bound struct {
	pos int
	sum int64
}

// crackBound ensures a crack boundary exists at value v and returns it:
// every value at a position < pos is < v, every value at a position
// >= pos is >= v, and sum is the sum of the former. p is the piece a
// table-of-contents lookup found for v — possibly split since, the loop
// below re-determines — or nil to look it up here.
//
// In LatchPiece mode this implements the full protocol of §5.3:
// navigate to the piece under the structure latch, block on (or, under
// conflict avoidance, try) the piece's write latch, re-determine the
// bound after waking up if the piece was split in the meantime
// (Figure 10), refine, publish the splits. In the exclusive modes
// (LatchColumn: the caller holds the column write latch; LatchNone:
// single-threaded) the piece latch is not taken and the loop runs once.
//
// ok is false only when refinement was forgone (conflict avoidance or
// a conflicting user-transaction lock).
func (ix *Index) crackBound(p *piece, v int64, ctx *opCtx) (at bound, ok bool) {
	// The maxKey sentinel is the tail piece's open upper bound: the
	// "boundary" is the array end, and no piece can ever contain it
	// strictly (a query like DeleteValue(maxKey-1) probes [v, v+1) =
	// [maxKey-1, maxKey) and reaches here).
	if v == maxKey {
		return bound{ix.arr.Len(), ix.total}, true
	}
	if p == nil {
		ix.structLock()
		p = ix.findPieceLocked(v)
		ix.structUnlock()
	}
	for {
		// Exact match: the boundary already exists. lo, loVal and loSum
		// are immutable after publication (splits keep the left part),
		// so no latch is needed for this check or the returned bound.
		if p.loVal == v {
			return bound{p.lo, p.loSum}, true
		}
		if !ix.pieceWriteLock(p, v, ctx) {
			return bound{}, false
		}
		// Re-validate under the piece latch: the piece may have been
		// split (hiVal narrowed) while this query waited (Figure 10).
		// loVal < v still holds: loVal is immutable and was checked.
		if v < p.hiVal {
			break
		}
		ix.pieceWriteUnlock(ctx, p)
		p = ix.redetermine(p, v)
	}
	at, _, _ = ix.refine(p, v, v, false, ctx)
	ix.pieceWriteUnlock(ctx, p)
	return at, true
}

// auxMinPiece is the piece size, in rows, from which a crack also cuts
// the piece at sampled quantiles: 16 Ki rows, about what stays resident
// in L2 while it is partitioned. Below it a crack costs microseconds
// whatever the workload does and extra boundaries would only grow the
// table of contents. It is a constant, not an option: swept over
// 1 Ki / 4 Ki / 16 Ki / 64 Ki, the sequential adversary runs within a
// tenth of its best up to 16 Ki and a quarter slower at 64 Ki, and the
// mixed read/write workload pays for the extra pieces below 16 Ki.
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
// — then partitioned in one multi-pivot pass and published as one chain
// of splits under the structure latch, each boundary with its prefix sum
// (p's own plus what the pass summed below the pivot). keepMiddle
// (LatchPiece only) returns the piece between the two required bounds
// write-latched — before anyone can reach it — for the §3.3 downgrade; it must
// then be exactly the qualifying range, so an optional pivot inside
// [a, b] is dropped. That costs no robustness: the caller is about to
// read every row of that piece anyway. Without keepMiddle such pivots
// stay, which is what keeps a zoom-in of ever narrower nested counts
// from re-partitioning the whole middle every time. A replay (CrackAt)
// takes no optional pivot at all.
//
// Safety of the chain: the pieces created here become reachable only
// through the structure latch (held for the whole chain) or through
// p.next (readable only under p's latch, held exclusively), so no other
// thread can observe a partially split chain.
func (ix *Index) refine(p *piece, a, b int64, keepMiddle bool, ctx *opCtx) (atA, atB bound, mid *piece) {
	start := time.Now()
	ctx.Touched += int64(p.hi - p.lo)
	var (
		pvBuf  [5]int64 // two bounds and three quantiles: no allocation without waiters
		posBuf [5]cracker.Split
		sample []int64
	)
	pv := append(pvBuf[:0], a)
	if b != a {
		pv = append(pv, b)
	}
	if !ctx.replay {
		required := len(pv)
		if ix.opts.GroupCracking && ix.opts.Latching == LatchPiece {
			pv = p.latch.WaiterBounds(pv)
		}
		waiters := len(pv)
		if p.hi-p.lo >= ix.auxMin {
			s := ix.samplePiece(p)
			sample = s[:]
			pv = append(pv, s[2], s[4], s[6])
		}
		kept := pv[:required]
		var grouped, aux int64
		for i, v := range pv[required:] {
			if v <= p.loVal || v >= p.hiVal || (keepMiddle && a <= v && v <= b) || slices.Contains(kept, v) {
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
	}
	pos := posBuf[:]
	if len(pv) > len(pos) {
		pos = make([]cracker.Split, len(pv))
	}
	ix.arr.CrackMulti(p.lo, p.hi, pv, pos, sample)
	ix.structLock()
	cur := p
	for i, v := range pv {
		at := bound{pos[i].Pos, p.loSum + pos[i].Sum}
		cur = ix.splitTwoLocked(cur, v, at.pos, at.sum)
		if v == a {
			atA = at
			if keepMiddle && a != b {
				mid = cur
				mid.latch.TryLock() // cannot fail: nobody can reach the piece yet
			}
		}
		if v == b {
			atB = at
		}
	}
	ix.structUnlock()
	d := time.Since(start)
	ctx.Crack += d
	ix.stats.CrackTime.Add(d)
	ix.stats.Cracks.Inc()
	ix.traceCrack(ctx, p, a)
	return atA, atB, mid
}

// samplePiece returns nine values of p from hashed positions, sorted.
// The xorshifted hash of the piece's extent keeps the positions
// deterministic per piece state yet well spread, whatever physical
// order earlier partition passes left behind. Caller holds p
// exclusively; p is not empty.
func (ix *Index) samplePiece(p *piece) (s [9]int64) {
	h := uint64(p.lo)*0x9e3779b97f4a7c15 + uint64(p.hi)*0xbf58476d1ce4e5b9
	n := uint64(p.hi - p.lo)
	for i := range s {
		h ^= h >> 29
		h *= 0xff51afd7ed558ccd
		s[i] = ix.arr.Value(p.lo + int(h%n))
	}
	slices.Sort(s[:])
	return s
}

// redetermine walks the piece list from p to the piece currently
// containing v, as in Figure 10: "every query achieves that by walking
// through the pieces of the array starting from the original piece
// they tried to latch". Since splits keep the left part, the target is
// always reachable by walking right; the prev walk is defensive.
func (ix *Index) redetermine(p *piece, v int64) *piece {
	ix.structLock()
	ix.stats.Redeterminations.Inc()
	for v >= p.hiVal && p.next != nil {
		p = p.next
	}
	for v < p.loVal && p.prev != nil {
		p = p.prev
	}
	ix.structUnlock()
	return p
}

// pieceWriteLock acquires p's write latch according to the conflict
// policy, recording wait time and conflicts. It consults the user-lock
// probe first: a system transaction must verify that no concurrent
// user transaction holds conflicting locks and, refinement being
// optional, it simply forgoes the work if one does (§3.3). In the
// exclusive modes the caller already excludes every other thread and
// there is nothing to acquire.
func (ix *Index) pieceWriteLock(p *piece, bound int64, ctx *opCtx) bool {
	if ix.opts.Latching != LatchPiece {
		return true
	}
	if ix.opts.LockProbe != nil && ix.opts.LockProbe() {
		ctx.Skipped = true
		ix.stats.Skipped.Inc()
		return false
	}
	ix.traceWant(ctx, p, true, bound)
	if ix.opts.OnConflict == Skip {
		if !p.latch.TryLock() {
			ctx.Conflicts++
			ctx.Skipped = true
			ix.stats.Conflicts.Inc()
			ix.stats.Skipped.Inc()
			return false
		}
		ix.traceAcquired(ctx, p, true)
		return true
	}
	w, err := p.latch.LockCtx(ctx.ctx, bound)
	ctx.addWait(w)
	if w > 0 {
		ix.stats.Conflicts.Inc()
		ix.stats.WaitTime.Add(w)
	}
	if err != nil {
		// Deadline expired or the query was cancelled while parked:
		// the latch was never acquired, and the query abandons its
		// optional refinement and its answer alike.
		ctx.err = err
		return false
	}
	ix.traceAcquired(ctx, p, true)
	return true
}

func (ix *Index) pieceWriteUnlock(ctx *opCtx, p *piece) {
	if ix.opts.Latching != LatchPiece {
		return
	}
	ix.traceRelease(ctx, p, true)
	p.latch.Unlock()
}

// pieceReadLock acquires p's read latch, recording wait time.
// Aggregation reads are never skipped: they are required for the
// answer, and they conflict only with an active crack of this piece.
// It reports false only when the operation's context expired while
// parked — the answer is abandoned, not merely unrefined.
func (ix *Index) pieceReadLock(p *piece, ctx *opCtx) bool {
	ix.traceWant(ctx, p, false, 0)
	w, err := p.latch.RLockCtx(ctx.ctx)
	ctx.addWait(w)
	if w > 0 {
		ix.stats.Conflicts.Inc()
		ix.stats.WaitTime.Add(w)
	}
	if err != nil {
		ctx.err = err
		return false
	}
	ix.traceAcquired(ctx, p, false)
	return true
}

func (ix *Index) pieceReadUnlock(ctx *opCtx, p *piece) {
	ix.traceRelease(ctx, p, false)
	p.latch.RUnlock()
}

// crackPair ensures boundaries exist at both lo and hi, in one refine
// step when both bounds fall into the same piece, and returns them. If
// keepMiddle is true (LatchPiece mode only) and the single-step path
// was taken, the piece holding exactly the qualifying range is returned
// still write-latched so the caller may downgrade it and aggregate in
// place; otherwise mid is nil.
//
// One visit to the table of contents looks up both bounds' pieces. When
// both boundaries exist — every query on a converged index — that visit
// is the whole query and nothing is latched. Otherwise the pieces go to
// the cracking protocol, whose re-determination covers a split between
// this lookup and the latch just as it covers one during the wait.
//
// ok is false only when refinement was skipped (the caller then
// answers by scanning); it is always true in the exclusive modes.
func (ix *Index) crackPair(lo, hi int64, keepMiddle bool, ctx *opCtx) (atLo, atHi bound, mid *piece, ok bool) {
	ix.structLock()
	p := ix.findPieceLocked(lo)
	same := p.loVal < lo && hi < p.hiVal
	q := p
	if !same {
		q = ix.findPieceLocked(hi)
	}
	ix.structUnlock()
	if p.loVal == lo && q.loVal == hi {
		return bound{p.lo, p.loSum}, bound{q.lo, q.loSum}, nil, true
	}
	if same {
		if !ix.pieceWriteLock(p, lo, ctx) {
			return bound{}, bound{}, nil, false
		}
		// Still strictly inside p? It may have been split while this
		// query waited; the bounds then no longer share a piece and are
		// cracked independently below.
		same = hi < p.hiVal
		if same {
			atLo, atHi, mid = ix.refine(p, lo, hi, keepMiddle, ctx)
		}
		ix.pieceWriteUnlock(ctx, p)
		if same {
			return atLo, atHi, mid, true
		}
		p, q = nil, nil // split while waiting: look both up again rather than queue on p's latch to find out
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
		ctx.Crack += r.st.Crack
		ctx.Touched += r.st.Touched
		ctx.Conflicts += r.st.Conflicts
		ctx.Skipped = ctx.Skipped || r.st.Skipped
		if ctx.err == nil {
			ctx.err = r.st.err
		}
		if !okLo || !r.ok {
			return bound{}, bound{}, nil, false
		}
		return atLo, r.at, nil, true
	}

	atLo, okLo := ix.crackBound(p, lo, ctx)
	if !okLo {
		return bound{}, bound{}, nil, false
	}
	atHi, okHi := ix.crackBound(q, hi, ctx)
	if !okHi {
		return bound{}, bound{}, nil, false
	}
	return atLo, atHi, nil, true
}
