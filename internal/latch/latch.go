// Package latch implements the short-term latches that protect the
// physical index structures of adaptive indexing (paper §3.1, Table 1).
//
// Latches differ from transactional locks: they separate threads rather
// than transactions, they protect in-memory data structures rather than
// logical database contents, they are held for critical sections rather
// than whole transactions, and deadlocks are avoided by coding
// discipline rather than detected. In this codebase the discipline is
// that a query holds at most one piece latch at a time.
//
// The Latch type adds two features over a plain sync.RWMutex, both
// required by the paper's experiments:
//
//  1. Wait-time accounting. Acquisition methods return the time the
//     caller spent blocked, which the harness aggregates into the
//     Figure 15 wait-time series and the conflict counters.
//
//  2. Scheduled hand-off for waiting crack operations. Writers register
//     the crack bound they intend to apply; waiters are kept sorted by
//     bound and, on release, the *middle-most* waiter is granted first.
//     Splitting the remaining domain in half maximizes the chance that
//     the remaining waiters can then proceed in parallel (paper §5.3,
//     "Optimizations": insertion sort on bounds, wake the middle).
package latch

import (
	"context"
	"sync"
	"time"
)

// Policy selects the order in which queued writers are granted the latch.
type Policy int

const (
	// MiddleFirst grants the queued writer whose crack bound is the
	// median of all waiting bounds (the paper's scheduling optimization).
	MiddleFirst Policy = iota
	// FIFO grants writers in arrival order; used by the scheduling
	// ablation benchmark.
	FIFO
)

// String returns the policy's display name.
func (p Policy) String() string {
	if p == MiddleFirst {
		return "middle-first"
	}
	return "fifo"
}

type waiter struct {
	bound int64
	seq   uint64 // arrival order, for FIFO and for stable middle picks
	// deadline is the waiter's context deadline (zero when the waiter
	// has none). Waiters carrying a deadline are woken earliest-deadline
	// first, ahead of the policy pick: a latch grant handed to a waiter
	// that is about to expire is wasted work — it wakes, observes the
	// expired context, and releases — while the tight-deadline waiter
	// behind it times out anyway.
	deadline time.Time
	ready    chan struct{}
}

// Latch is a read/write latch with wait accounting and scheduled
// hand-off. The zero value is a usable latch with MiddleFirst policy.
//
// Grant rules (reader preference, matching the Figure 8 timelines):
//   - a reader is granted whenever no writer is active;
//   - a writer is granted when the latch is entirely free and no other
//     writer is queued ahead of it per the policy;
//   - on writer release, all queued readers are granted together; if
//     none, the policy-chosen writer is granted;
//   - on last-reader release, the policy-chosen writer is granted;
//   - a queued writer that arrived through LockCtx with a context
//     deadline outranks the policy: the earliest-deadline waiter is
//     always granted first (see waiter.deadline).
type Latch struct {
	mu      sync.Mutex
	readers int  // active shared holders
	writer  bool // active exclusive holder
	writeQ  []waiter
	readQ   []chan struct{}
	seq     uint64
	policy  Policy
	// onWait, when set, observes every blocked acquisition with the
	// wait duration and whether the waiter was a reader. It fires only
	// on the slow path (the caller actually parked), so the uncontended
	// fast path pays nothing.
	onWait func(d time.Duration, reader bool)
}

// New returns a latch with the given writer-scheduling policy.
func New(p Policy) *Latch { return &Latch{policy: p} }

// SetWaitObserver installs f to observe blocked acquisitions (wait
// duration, reader flag). Must be called before the latch is shared
// between goroutines — typically right after New — as the field is
// read without synchronization on the wait slow path. A nil f keeps
// waits unobserved.
func (l *Latch) SetWaitObserver(f func(d time.Duration, reader bool)) { l.onWait = f }

// waited reports a completed blocked acquisition to the observer.
func (l *Latch) waited(d time.Duration, reader bool) {
	if l.onWait != nil {
		l.onWait(d, reader)
	}
}

// Lock acquires the latch exclusively, for a crack at the given bound.
// The bound is only used to order waiting writers; callers that latch a
// whole column may pass any value. It returns the time spent blocked
// (zero when granted immediately).
func (l *Latch) Lock(bound int64) time.Duration {
	l.mu.Lock()
	if !l.writer && l.readers == 0 && len(l.writeQ) == 0 {
		l.writer = true
		l.mu.Unlock()
		return 0
	}
	w := waiter{bound: bound, seq: l.seq, ready: make(chan struct{})}
	l.seq++
	l.enqueueWriter(w)
	l.mu.Unlock()
	start := time.Now()
	<-w.ready // ownership transferred by releaser
	d := time.Since(start)
	l.waited(d, false)
	return d
}

// LockCtx is Lock bounded by a context: a caller parked in the writer
// queue unparks promptly when ctx is cancelled or its deadline expires,
// returning the context's error without holding the latch. A nil or
// never-cancelled context degrades to the plain Lock fast path with no
// extra allocation.
func (l *Latch) LockCtx(ctx context.Context, bound int64) (time.Duration, error) {
	if ctx == nil || ctx.Done() == nil {
		return l.Lock(bound), nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	if !l.writer && l.readers == 0 && len(l.writeQ) == 0 {
		l.writer = true
		l.mu.Unlock()
		return 0, nil
	}
	w := waiter{bound: bound, seq: l.seq, ready: make(chan struct{})}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	l.seq++
	l.enqueueWriter(w)
	l.mu.Unlock()
	start := time.Now()
	select {
	case <-w.ready:
		d := time.Since(start)
		l.waited(d, false)
		return d, nil
	case <-ctx.Done():
	}
	// Cancelled while parked: remove the queue entry, unless a releaser
	// already granted us the latch (ready closed under l.mu before the
	// entry left the queue) — then take and immediately release it so
	// the hand-off chain continues.
	l.mu.Lock()
	removed := false
	for i := range l.writeQ {
		if l.writeQ[i].seq == w.seq {
			l.writeQ = append(l.writeQ[:i], l.writeQ[i+1:]...)
			removed = true
			break
		}
	}
	l.mu.Unlock()
	if !removed {
		<-w.ready
		l.Unlock()
	}
	d := time.Since(start)
	l.waited(d, false)
	return d, ctx.Err()
}

// TryLock attempts to acquire the latch exclusively without blocking.
// It reports whether the latch was acquired. Used for conflict
// avoidance: refinement is optional, so on failure the caller may
// simply forgo cracking (paper §3.3).
func (l *Latch) TryLock() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writer || l.readers > 0 || len(l.writeQ) > 0 {
		return false
	}
	l.writer = true
	return true
}

// Unlock releases exclusive ownership and hands the latch to waiting
// readers (all of them) or, if none, to the policy-chosen writer.
func (l *Latch) Unlock() {
	l.mu.Lock()
	if !l.writer {
		l.mu.Unlock()
		panic("latch: Unlock of non-write-held latch")
	}
	l.writer = false
	l.grantLocked()
	l.mu.Unlock()
}

// Downgrade converts an exclusive hold into a shared hold without
// releasing, and admits all queued readers alongside. The paper's early
// termination discussion (§3.3) allows a refining system transaction to
// "downgrade [its latches] to shared latches, permitting the concurrent
// user query to proceed" — and the crack-then-aggregate path uses it to
// scan the piece it just refined without a release/re-acquire window.
func (l *Latch) Downgrade() {
	l.mu.Lock()
	if !l.writer {
		l.mu.Unlock()
		panic("latch: Downgrade of non-write-held latch")
	}
	l.writer = false
	l.readers = 1 + len(l.readQ)
	for _, ch := range l.readQ {
		close(ch)
	}
	l.readQ = l.readQ[:0]
	l.mu.Unlock()
}

// RLock acquires the latch shared. It returns the time spent blocked.
func (l *Latch) RLock() time.Duration {
	l.mu.Lock()
	if !l.writer {
		// Reader preference: admit even if writers are queued.
		l.readers++
		l.mu.Unlock()
		return 0
	}
	ch := make(chan struct{})
	l.readQ = append(l.readQ, ch)
	l.mu.Unlock()
	start := time.Now()
	<-ch
	d := time.Since(start)
	l.waited(d, true)
	return d
}

// RLockCtx is RLock bounded by a context: a reader parked behind an
// active writer unparks promptly on cancellation or deadline expiry,
// returning the context's error without holding the latch.
func (l *Latch) RLockCtx(ctx context.Context) (time.Duration, error) {
	if ctx == nil || ctx.Done() == nil {
		return l.RLock(), nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	if !l.writer {
		l.readers++
		l.mu.Unlock()
		return 0, nil
	}
	ch := make(chan struct{})
	l.readQ = append(l.readQ, ch)
	l.mu.Unlock()
	start := time.Now()
	select {
	case <-ch:
		d := time.Since(start)
		l.waited(d, true)
		return d, nil
	case <-ctx.Done():
	}
	// Cancelled while parked: remove our channel from the read queue,
	// unless the grant already happened — then release the share we
	// were handed.
	l.mu.Lock()
	removed := false
	for i := range l.readQ {
		if l.readQ[i] == ch {
			l.readQ = append(l.readQ[:i], l.readQ[i+1:]...)
			removed = true
			break
		}
	}
	l.mu.Unlock()
	if !removed {
		<-ch
		l.RUnlock()
	}
	d := time.Since(start)
	l.waited(d, true)
	return d, ctx.Err()
}

// TryRLock attempts to acquire the latch shared without blocking and
// reports whether it succeeded.
func (l *Latch) TryRLock() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writer {
		return false
	}
	l.readers++
	return true
}

// RUnlock releases a shared hold; the last reader out hands the latch
// to the policy-chosen waiting writer.
func (l *Latch) RUnlock() {
	l.mu.Lock()
	if l.readers <= 0 {
		l.mu.Unlock()
		panic("latch: RUnlock of non-read-held latch")
	}
	l.readers--
	if l.readers == 0 {
		l.grantLocked()
	}
	l.mu.Unlock()
}

// enqueueWriter inserts w keeping writeQ sorted by bound (insertion
// sort, as in the paper). Under FIFO the queue is kept in seq order.
func (l *Latch) enqueueWriter(w waiter) {
	if l.policy == FIFO {
		l.writeQ = append(l.writeQ, w)
		return
	}
	i := len(l.writeQ)
	for i > 0 && l.writeQ[i-1].bound > w.bound {
		i--
	}
	l.writeQ = append(l.writeQ, waiter{})
	copy(l.writeQ[i+1:], l.writeQ[i:])
	l.writeQ[i] = w
}

// grantLocked transfers ownership after a release. Caller holds l.mu.
func (l *Latch) grantLocked() {
	if l.writer || l.readers > 0 {
		return
	}
	if len(l.readQ) > 0 {
		l.readers = len(l.readQ)
		for _, ch := range l.readQ {
			close(ch)
		}
		l.readQ = l.readQ[:0]
		return
	}
	if len(l.writeQ) == 0 {
		return
	}
	// Deadline-aware wake order: among waiters that carry a context
	// deadline, the earliest wakes first, ahead of the policy pick.
	// Waiters without deadlines fall back to the configured policy
	// (middle-most bound or FIFO).
	i := -1
	for j := range l.writeQ {
		if d := l.writeQ[j].deadline; !d.IsZero() {
			if i < 0 || d.Before(l.writeQ[i].deadline) {
				i = j
			}
		}
	}
	if i < 0 {
		i = 0
		if l.policy == MiddleFirst {
			i = len(l.writeQ) / 2
		}
	}
	w := l.writeQ[i]
	l.writeQ = append(l.writeQ[:i], l.writeQ[i+1:]...)
	l.writer = true
	close(w.ready)
}

// QueuedWriters returns the number of writers currently waiting;
// exposed for tests and for the scheduling example.
func (l *Latch) QueuedWriters() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.writeQ)
}

// WaiterBounds appends a snapshot of the crack bounds of all queued
// writers to dst and returns the extended slice. The current latch
// holder uses it for group cracking (the paper's §7 "dynamic
// algorithms"): refine the index for every waiting request in one step,
// so the waiters find their boundary already in place when they are
// granted the latch.
func (l *Latch) WaiterBounds(dst []int64) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range l.writeQ {
		dst = append(dst, w.bound)
	}
	return dst
}
