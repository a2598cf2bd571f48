package crackindex

import (
	"sync"
	"sync/atomic"

	"adaptix/internal/directory"
	"adaptix/internal/epoch"
)

// Differential updates.
//
// The paper's read-only experiments defer update algorithms to the
// "Updating a cracked database" work [21] and note (§4.2) that
// adaptive indexing "relies on a form of differential files [30] for
// high update rates". This file implements exactly that: logical
// inserts and deletes accumulate in small sorted pending arrays (the
// differential file) and every query merges their effect into its
// answer. The physical cracker array — the index *structure* — is
// untouched, so all concurrency-control machinery for refinement keeps
// working unchanged while contents change; pending updates are guarded
// by their own short read-write latch, acquired only outside any piece
// latch (no lock-order cycles by construction).
//
// A user transaction that wants classical isolation for its updates
// takes an X lock on the column through the lock manager; the
// refinement LockProbe then makes concurrent queries forgo structural
// changes while the update is in flight (§3.3).

// pendingUpdates is the differential file: sorted multisets of
// inserted and deleted values.
type pendingUpdates struct {
	mu  sync.RWMutex
	ins []int64
	del []int64
}

// pendingTotal mirrors len(ins)+len(del) for a latch-free fast path.
type pendingCounter struct {
	n atomic.Int64
}

// Insert adds one logical instance of v to the column's contents.
// The index structure is not touched: the value lands in the
// differential file and is merged into every query answer.
func (ix *Index) Insert(v int64) {
	ix.pend.mu.Lock()
	ix.pend.ins = epoch.InsertSorted(ix.pend.ins, v)
	ix.pend.mu.Unlock()
	ix.pendN.n.Add(1)
}

// DeleteValue removes one logical instance of v, reporting whether
// one existed. Deletion is also differential: a deletion marker
// ("anti-matter" in the paper's §4.2 terminology) joins the pending
// file and cancels one instance at query time.
func (ix *Index) DeleteValue(v int64) bool {
	// The base count cracks the column as a side effect — a single
	// user operation both querying and optimizing the index (§3).
	oc := opCtx{}
	base := ix.countBase(&oc, v, v+1)
	ix.pend.mu.Lock()
	defer ix.pend.mu.Unlock()
	logical := base + epoch.CountRange(ix.pend.ins, v, v+1) - epoch.CountRange(ix.pend.del, v, v+1)
	if logical <= 0 {
		return false
	}
	ix.pend.del = epoch.InsertSorted(ix.pend.del, v)
	ix.pendN.n.Add(1)
	return true
}

// PendingUpdates returns the number of pending (inserts, deletes).
func (ix *Index) PendingUpdates() (inserts, deletes int) {
	ix.pend.mu.RLock()
	defer ix.pend.mu.RUnlock()
	return len(ix.pend.ins), len(ix.pend.del)
}

// PendingSnapshot returns copies of the sorted pending insert and
// delete multisets. The differential file is not cleared: a group
// merge snapshots the pending updates of a write-sealed index, builds
// a replacement index with them applied, and atomically swaps it in,
// so the old index keeps answering correctly for readers that still
// hold it. (The sharded column versions its differential outside the
// index — internal/epoch — and leaves this per-index file empty.)
func (ix *Index) PendingSnapshot() (ins, del []int64) {
	ix.pend.mu.RLock()
	defer ix.pend.mu.RUnlock()
	return append([]int64(nil), ix.pend.ins...), append([]int64(nil), ix.pend.del...)
}

// CrackAt ensures a crack boundary exists at value v, refining the
// index without answering a query. It is the replay primitive for
// boundary knowledge: recovery re-cracks a fresh index at the boundaries
// an earlier index had earned, so the side effects of earlier queries
// survive a restart (paper §4.2). It adds exactly that boundary — no
// waiter's bound, no auxiliary quantile — so a replayed table is the
// recorded table.
func (ix *Index) CrackAt(v int64) {
	ctx := opCtx{replay: true}
	ix.ensureInit(&ctx)
	ix.crackBound(directory.Ref{}, v, &ctx)
}

// pendingCountAdj returns the count adjustment for [lo, hi).
func (ix *Index) pendingCountAdj(lo, hi int64) int64 {
	if ix.pendN.n.Load() == 0 {
		return 0
	}
	ix.pend.mu.RLock()
	defer ix.pend.mu.RUnlock()
	return epoch.CountRange(ix.pend.ins, lo, hi) - epoch.CountRange(ix.pend.del, lo, hi)
}

// pendingSumAdj returns the sum adjustment for [lo, hi).
func (ix *Index) pendingSumAdj(lo, hi int64) int64 {
	if ix.pendN.n.Load() == 0 {
		return 0
	}
	ix.pend.mu.RLock()
	defer ix.pend.mu.RUnlock()
	return epoch.SumRange(ix.pend.ins, lo, hi) - epoch.SumRange(ix.pend.del, lo, hi)
}
