// Fan-out query execution: a range query is routed to the shards whose
// assigned ranges overlap the predicate, the per-shard sub-queries run
// in parallel on a bounded worker pool, and the partial answers and
// cost breakdowns merge into one result.
//
// Every query carries a context. Cancellation before dispatch returns
// ctx.Err() without touching any shard; cancellation mid-flight stops
// the remaining sub-queries — a worker that has not yet started its
// shard skips it entirely, and one parked on a piece latch inside a
// shard unparks promptly (the latch waits are context-aware all the
// way down). A query that returns a non-nil error returns no answer.
package shard

import (
	"context"
	"sync"
	"time"

	"adaptix/internal/crackindex"
)

// Count evaluates Q1 — select count(*) where lo <= A < hi — fanning
// out to the overlapping shards and cracking each as a side effect.
// The returned OpStats sums the sub-queries' wait/refine time and
// conflicts (total work across cores) and reports the slowest
// sub-query's elapsed time as Critical (the fan-out critical path): 0
// when no shard had to run one, because every overlapping shard was
// covered or answered from its table of contents.
func (c *Column) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return c.query(ctx, false, lo, hi)
}

// Sum evaluates Q2 — select sum(A) where lo <= A < hi — fanning out to
// the overlapping shards and cracking each as a side effect.
func (c *Column) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return c.query(ctx, true, lo, hi)
}

type subResult struct {
	val     int64
	st      crackindex.OpStats
	err     error
	elapsed time.Duration
}

// queryScratch holds one query's routing and fan-out state. The
// buffers are pooled and reused across queries, so the warm query path
// performs no per-query slice allocation at all — the routing loop
// appends into a slice that already has capacity, and the fan-out
// result array is resliced rather than remade. The fan-out parameters
// (ctx, predicate, result slots) live here too so the pool workers run
// a plain method instead of a closure: a closure would capture the
// routing slices and force their headers to heap on every query,
// including the single-target fast path that spawns no goroutine.
//
// Ownership rules: the scratch belongs to exactly one query from get
// to release; worker goroutines write only their own res[i] slot and
// never touch the scratch past wg.Wait; release clears every pointer
// so a pooled scratch cannot keep replaced shards, contexts, or errors
// alive.
type queryScratch struct {
	targets []*part
	res     []subResult
	wg      sync.WaitGroup
	ctx     context.Context
	done    <-chan struct{}
	wantSum bool
	lo, hi  int64
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// release clears the pointer-bearing fields and returns the scratch,
// buffer capacity intact, to the pool.
func (sc *queryScratch) release() {
	clear(sc.targets)
	sc.targets = sc.targets[:0]
	clear(sc.res)
	sc.res = sc.res[:0]
	sc.ctx, sc.done = nil, nil
	scratchPool.Put(sc)
}

// runSub is the fan-out worker: one pool-bounded sub-query against
// targets[i], its result written to the worker's own res[i] slot. A
// worker whose context is cancelled before it wins a pool slot — or
// before it starts — skips its shard entirely.
func (c *Column) runSub(sc *queryScratch, i int) {
	defer sc.wg.Done()
	if sc.done != nil {
		select {
		case c.sem <- struct{}{}:
		case <-sc.done:
			sc.res[i] = subResult{err: sc.ctx.Err()}
			return
		}
	} else {
		c.sem <- struct{}{}
	}
	defer func() { <-c.sem }()
	if err := sc.ctx.Err(); err != nil {
		sc.res[i] = subResult{err: err}
		return
	}
	t0 := time.Now()
	v, st, err := sc.targets[i].sub(sc.ctx, sc.wantSum, sc.lo, sc.hi)
	sc.res[i] = subResult{val: v, st: st, err: err, elapsed: time.Since(t0)}
}

func (c *Column) query(ctx context.Context, wantSum bool, lo, hi int64) (int64, crackindex.OpStats, error) {
	var merged crackindex.OpStats
	if lo >= hi {
		return 0, merged, nil
	}
	// Cancelled before dispatch: no sub-query runs, no shard refines.
	if err := ctx.Err(); err != nil {
		return 0, merged, err
	}
	// Observability: span is zero (and the closing time.Since skipped)
	// unless tracing sampled this query; the per-query cost histograms
	// record regardless, from numbers the query computed anyway.
	ob := c.opts.Obs
	span := ob.QueryStart()
	// One immutable shard-map snapshot per query: a concurrent
	// structural change publishes a successor map, but the parts of
	// this snapshot stay intact and correct, so the query never blocks
	// on a rebalance.
	m := c.m.Load()

	// Route: the shards whose assigned ranges overlap [lo, hi). Shards
	// the predicate fully covers are answered from the precomputed
	// per-shard aggregates — no latch, no index touch — so a broad
	// query only pays index work in its two fringe shards. The load
	// order (rows/total before min/max) is the reader half of the
	// ordering contract in update.go.
	//
	// A fringe shard whose two clamped bounds are crack boundaries
	// already is answered right here as well, from its table of contents
	// (part.peek: two latch-free lookups): a goroutine spawn and a
	// WaitGroup round cost several times what such a sub-query does.
	// Only the shards that still have to crack become fan-out targets.
	// A query with no target reads no clock and records no cost
	// histogram.
	var total int64
	var covered, hits int64
	sc := scratchPool.Get().(*queryScratch)
	defer sc.release()
	targets := sc.targets
	// From the shard owning lo: the first that can contain values >= lo.
	for i := m.route(lo); i < len(m.shards) && m.shards[i].loVal < hi; i++ {
		s := m.shards[i]
		rows := s.agg.rows.Load()
		tot := s.agg.total.Load()
		mn, mx := s.agg.minA.Load(), s.agg.maxA.Load()
		if rows == 0 || mx < lo || mn >= hi {
			continue // no qualifying values in this shard
		}
		if lo <= mn && hi > mx {
			if wantSum {
				total += tot
			} else {
				total += rows
			}
			covered++
			continue
		}
		if v, epochs, ok := s.peek(wantSum, lo, hi); ok {
			total += v
			merged.Epochs = max(merged.Epochs, epochs)
			hits++
			continue
		}
		targets = append(targets, s)
	}
	sc.targets = targets // keep any growth for the next query

	// Fan out what must crack: the caller's goroutine executes the first
	// sub-query itself; the rest run on pool workers. Workers acquire a
	// slot before touching their shard and release it when done, bounding
	// the fan-out amplification across all concurrent queries without
	// ever throttling the clients themselves (deadlock-free: a caller
	// waiting in wg.Wait holds no slot). A worker whose context is
	// cancelled before it wins a slot — or before it starts — skips its
	// shard entirely: the remaining sub-queries of a cancelled query
	// are never executed.
	if len(targets) > 0 {
		t0 := time.Now() // the critical path starts with the first sub-query
		res := sc.res
		if cap(res) >= len(targets) {
			res = res[:len(targets)]
		} else {
			res = make([]subResult, len(targets))
		}
		sc.res = res
		if len(targets) > 1 {
			sc.ctx, sc.done = ctx, ctx.Done()
			sc.wantSum, sc.lo, sc.hi = wantSum, lo, hi
			for i := 1; i < len(targets); i++ {
				sc.wg.Add(1)
				go c.runSub(sc, i)
			}
		}
		v, st, err := targets[0].sub(ctx, wantSum, lo, hi)
		res[0] = subResult{val: v, st: st, err: err, elapsed: time.Since(t0)}
		sc.wg.Wait()

		for _, r := range res {
			total += r.val
			merged.Wait += r.st.Wait
			merged.Refine += r.st.Refine
			merged.Touched += r.st.Touched
			merged.Conflicts += r.st.Conflicts
			merged.Skipped = merged.Skipped || r.st.Skipped
			merged.Epochs = max(merged.Epochs, r.st.Epochs)
			merged.Critical = max(merged.Critical, r.elapsed)
		}
		for _, r := range res {
			if r.err != nil {
				return 0, merged, r.err
			}
		}
	}
	ob.RecordQueryProfile(lo, hi, covered+hits+int64(len(targets)), covered, merged.Touched)
	ob.RecordQuery(span, merged.Wait, merged.Refine, merged.Critical)
	c.capture(ctx, wantSum, lo, hi, total, merged.Touched, merged.Epochs)
	return total, merged, nil
}

// capture hands one successful query to the workload recorder: bounds,
// the answer (the replay checksum), touched rows, epoch depth, and the
// ctx query tag. The inactive path is a nil check plus one atomic
// load, so it rides every query inside the 0-alloc and overhead gates;
// the tag's ctx.Value lookup is paid only when capture is on.
func (c *Column) capture(ctx context.Context, wantSum bool, lo, hi, result, touched int64, epochs int) {
	if cr := c.opts.Capture; cr.Active() {
		cr.RecordRead(crackindex.Tag(ctx), wantSum, lo, hi, result, touched, epochs)
	}
}

// adjust returns what the shard's epoch chain adds to a base answer over
// the clamped range — the snapshot-read rule: base part plus every
// visible epoch, exact even while a sealed prefix is being merged in the
// background — and the chain depth it consulted.
func (s *part) adjust(wantSum bool, lo, hi int64) (int64, int) {
	if s.chain == nil {
		return 0, 0
	}
	if wantSum {
		return s.chain.SumAdj(lo, hi)
	}
	return s.chain.CountAdj(lo, hi)
}

// peek answers the per-shard sub-query (see sub) without running it, when
// the shard's index finds both clamped bounds among its boundaries
// (crackindex.Peek); ok is false, and nothing was touched, otherwise.
func (s *part) peek(wantSum bool, lo, hi int64) (v int64, epochs int, ok bool) {
	if s.ix == nil {
		return 0, 0, false
	}
	lo, hi = max(lo, s.loVal), min(hi, s.hiVal)
	n, sum, ok := s.ix.Peek(lo, hi)
	if !ok {
		return 0, 0, false
	}
	if wantSum {
		n = sum
	}
	adj, epochs := s.adjust(wantSum, lo, hi)
	return n + adj, epochs, true
}

// sub runs one per-shard sub-query with the predicate clamped to the
// shard's assigned range, so crack boundaries always land inside the
// shard's own value domain: the base answer from the shard's index,
// adjusted by the shard's epoch chain.
func (s *part) sub(ctx context.Context, wantSum bool, lo, hi int64) (int64, crackindex.OpStats, error) {
	lo, hi = max(lo, s.loVal), min(hi, s.hiVal)
	var v int64
	var st crackindex.OpStats
	var err error
	if wantSum {
		v, st, err = s.src.Sum(ctx, lo, hi)
	} else {
		v, st, err = s.src.Count(ctx, lo, hi)
	}
	if err != nil {
		return 0, st, err
	}
	adj, epochs := s.adjust(wantSum, lo, hi)
	st.Epochs = epochs
	return v + adj, st, nil
}
