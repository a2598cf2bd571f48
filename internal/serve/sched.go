package serve

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/metrics"
)

// DefaultWindow is the batching cap: a query arriving when its home
// shard's running batch started longer ago runs on an executor of its own.
const DefaultWindow = 100 * time.Microsecond

// pendReq is one admitted query parked in the scheduler.
type pendReq struct {
	id       uint64
	op       Op
	lo, hi   int64
	deadline time.Time // zero = none
	finish   func(Response)
}

// engine is the query surface the scheduler executes against (a
// *shard.Column).
type engine interface {
	Home(v int64) int
	Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error)
	Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error)
}

// lane is one home shard's executors and the batch queued behind them.
type lane struct {
	running int       // executors serving this shard's batches
	started time.Time // when the latest of their batches began
	pending []pendReq // the next batch
	run     func()    // the executor body, built once: a spawn allocates nothing
}

// scheduler is the per-shard batch scheduler; it arms no timer. A query
// to a shard with no executor running dispatches at once on a new one;
// queries arriving while it runs form the shard's next batch, which it
// takes whole when its batch finishes, so batches grow with the load. A
// query arriving when the running batch started more than a window ago
// hands the pending batch to a second executor: a slow execution never
// holds up the queries behind it. In a batch, exact-duplicate (op, lo,
// hi) bounds execute ONCE and the answer fans out to every waiter.
type scheduler struct {
	col    engine
	window time.Duration

	mu    sync.Mutex
	lanes []*lane // by shard ordinal; after a split, a stale lane only misses coalesces
	depth int     // queries currently parked across all shards

	// Shared observability instruments (owned by the Server).
	batchSize  *metrics.Histogram
	queueDepth *metrics.Histogram
	batches    *atomic.Int64
	batchedReq *atomic.Int64
	coalesced  *atomic.Int64
}

// enqueue parks r in its home shard's pending batch and starts an
// executor for it when none is running or the running batch has outlived
// the window.
func (s *scheduler) enqueue(r pendReq) {
	home := s.col.Home(r.lo)
	s.mu.Lock()
	l := s.lane(home)
	l.pending = append(l.pending, r)
	s.depth++
	if l.running == 0 || time.Since(l.started) > s.window {
		s.spawn(l)
	}
	s.mu.Unlock()
}

// lane returns home's lane; s.mu is held.
func (s *scheduler) lane(home int) *lane {
	for len(s.lanes) <= home {
		l := &lane{}
		l.run = func() { s.drain(l) }
		s.lanes = append(s.lanes, l)
	}
	return s.lanes[home]
}

// spawn starts one more executor on l; s.mu is held.
func (s *scheduler) spawn(l *lane) {
	l.running++
	l.started = time.Now()
	go l.run()
}

// drain is an executor: it serves l's pending batches until none is
// left, trading buffers with the lane so a busy lane allocates none.
func (s *scheduler) drain(l *lane) {
	var spent []pendReq
	for {
		s.mu.Lock()
		if len(l.pending) == 0 {
			l.running--
			if cap(spent) > cap(l.pending) {
				l.pending = spent
			}
			s.mu.Unlock()
			return
		}
		batch := l.pending
		l.pending = spent
		l.started = time.Now()
		s.depth -= len(batch)
		depth := s.depth
		s.mu.Unlock()
		s.exec(batch, depth)
		clear(batch) // drop the finish closures
		spent = batch[:0]
	}
}

// flush gives every pending batch an executor of its own now (graceful
// drain: nothing waits for a slow batch ahead of it).
func (s *scheduler) flush() {
	s.mu.Lock()
	for _, l := range s.lanes {
		if len(l.pending) > 0 {
			s.spawn(l)
		}
	}
	s.mu.Unlock()
}

// exec serves one batch: expired requests are answered StatusDeadline
// without touching the engine, the rest are sorted in place by (op, lo,
// hi), and each run of equal bounds executes once, its answer fanned out
// to the whole run.
func (s *scheduler) exec(reqs []pendReq, depthAfter int) {
	s.batchSize.Record(int64(len(reqs)))
	s.queueDepth.Record(int64(depthAfter))
	s.batches.Add(1)
	s.batchedReq.Add(int64(len(reqs)))

	now := time.Now()
	var latest time.Time
	unbounded := false // some live request has no deadline
	live := reqs[:0]
	for _, r := range reqs {
		if !r.deadline.IsZero() && r.deadline.Before(now) {
			r.finish(Response{ID: r.id, Op: r.op, Status: StatusDeadline})
			continue
		}
		live = append(live, r)
		unbounded = unbounded || r.deadline.IsZero()
		if r.deadline.After(latest) {
			latest = r.deadline
		}
	}
	if len(live) == 0 {
		return
	}

	// One context for the whole dispatch, bounded by the LATEST waiter
	// deadline, and not at all when a waiter has none: the execution
	// must be allowed to run long enough to serve its most patient
	// waiter, and individual expiry was already settled at dispatch time.
	ctx := context.Background()
	if !unbounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, latest)
		defer cancel()
	}
	slices.SortFunc(live, func(a, b pendReq) int {
		return cmp.Or(cmp.Compare(a.op, b.op), cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi))
	})
	for len(live) > 0 {
		k, n := live[0], 1
		for n < len(live) && live[n].op == k.op && live[n].lo == k.lo && live[n].hi == k.hi {
			n++
		}
		if n > 1 {
			s.coalesced.Add(int64(n - 1))
		}
		var v int64
		var err error
		switch k.op {
		case OpCount:
			v, _, err = s.col.Count(ctx, k.lo, k.hi)
		case OpSum:
			v, _, err = s.col.Sum(ctx, k.lo, k.hi)
		}
		status := StatusOK
		if err != nil {
			status = StatusInternal
			if ctx.Err() != nil {
				status = StatusDeadline
			}
			v = 0
		}
		for _, r := range live[:n] {
			r.finish(Response{ID: r.id, Op: r.op, Status: status, Value: v})
		}
		live = live[n:]
	}
}
