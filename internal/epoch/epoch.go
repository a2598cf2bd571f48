// Package epoch implements versioned differential files: the
// multi-version write path that keeps shard maintenance off the
// critical path of concurrent writers.
//
// The paper (§4.2) relies on a differential file to absorb updates
// while the adaptive index reorganizes itself; with a single
// differential, a group-apply merge must seal the shard and park
// writers for the whole rebuild ("Main Memory Adaptive Indexing for
// Multi-core Systems", Alvarez et al., 2014, shows such stalls
// dominate on many cores). This package versions the differential
// instead: each shard's pending writes live in a chain of epoch files.
// A group-apply seals only the *current* epoch — writers immediately
// write to the freshly opened successor — and the sealed prefix merges
// into the cracker array in the background. Readers snapshot the base
// part plus every visible epoch for exact answers mid-merge, the
// optimistic/multi-version scheme the paper names as the way to keep
// index maintenance out of transaction critical paths.
//
// The open epoch holds the net change per value: a delete that finds a
// pending insert of its value in the open file removes that insert
// instead of adding anti-matter, and an insert that finds pending
// anti-matter of its value removes one record of it. An open file thus
// never holds both signs of one value, and churn — a value inserted and
// deleted again before its epoch seals — leaves nothing behind for a
// group-apply to rebuild. Cancellation never crosses epochs: sealed
// files are immutable, so a cancelled pair always shares one epoch id,
// and a checkpoint cut (Roll) falls on one side of the pair or the
// other, never between.
//
// Epoch lifecycle:
//
//		open ──Seal/Roll──▶ sealed ──apply──▶ applied ──Fork──▶ pruned
//
//	  - open: the chain's last file; net per value, written under the
//	    chain's latch (shared for inserts, exclusive for deletes).
//	  - sealed: immutable; still consulted by readers, waiting for a
//	    group-apply merge.
//	  - applied: its contents are folded into a successor part's base
//	    array; the successor's chain (Fork) no longer lists it.
//	  - pruned: unreachable once the last reader of the old part
//	    drops its shard-map snapshot; memory is reclaimed by GC.
//
// Epoch ids are allocated from one monotonic per-column counter, so a
// single watermark W orders every epoch of every shard: "contents up
// to W" is a well-defined cut that a checkpoint's snapshot captures and
// records with it, and that recovery uses to discard half-applied
// epochs and replay only the logical records beyond it.
//
// Forked chains (the successor published by a group-apply) share the
// lineage latch and the open epoch file with their ancestor, so a
// writer still holding the pre-merge part writes to the same open
// epoch and is never lost; a writer that finds its open epoch sealed
// re-routes through the current shard map instead of parking.
package epoch

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"adaptix/internal/kernel"
)

// File is one epoch: a sorted multiset of pending inserts and
// anti-matter deletes. Net per value while open — ins and del never
// share a value, since a write of one sign removes a pending record of
// the other sign before it adds one of its own — and immutable once
// sealed.
type File struct {
	mu     sync.RWMutex
	id     int64
	ins    []int64 // sorted pending inserts
	del    []int64 // sorted pending deletes (anti-matter)
	sealed bool
	// n is len(ins)+len(del), stored under mu after every change; it
	// falls when a write cancels a pending record. A reader that loads
	// 0 is ordered before the first record, or after a cancel that left
	// the file empty, and skips the file without taking mu: either way
	// the file's net contribution is zero at that point. A file shared
	// across Fork carries it along, so every chain listing the file
	// agrees.
	n atomic.Int64
}

func newFile(id int64) *File { return &File{id: id} }

// insert adds v, reporting the epoch id it landed in: it removes one
// pending anti-matter record of v if the file holds one, else it adds
// a pending insert. ok is false when the file was sealed by a
// concurrent structural operation (the caller must re-route through
// the current shard map).
func (f *File) insert(v int64) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return 0, false
	}
	if f.cancel(&f.del, v) {
		return f.id, true
	}
	f.ins = InsertSorted(f.ins, v)
	f.n.Add(1)
	return f.id, true
}

// cancel removes one record of v from recs, the file's pending inserts
// or deletes, reporting whether it held one; f.mu is held and the file
// is open.
func (f *File) cancel(recs *[]int64, v int64) bool {
	i, ok := slices.BinarySearch(*recs, v)
	if ok {
		*recs = slices.Delete(*recs, i, i+1)
		f.n.Add(-1)
	}
	return ok
}

// countAdj returns the file's count adjustment for [lo, hi).
func (f *File) countAdj(lo, hi int64) int64 {
	if f.n.Load() == 0 {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return CountRange(f.ins, lo, hi) - CountRange(f.del, lo, hi)
}

// sumAdj returns the file's sum adjustment for [lo, hi).
func (f *File) sumAdj(lo, hi int64) int64 {
	if f.n.Load() == 0 {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return SumRange(f.ins, lo, hi) - SumRange(f.del, lo, hi)
}

// Stat is an observability snapshot of one epoch file.
type Stat struct {
	// ID is the epoch id (monotonic per column).
	ID int64
	// Ins and Del are the pending insert and delete counts.
	Ins, Del int
	// Sealed reports whether the epoch is immutable.
	Sealed bool
}

func (f *File) stat() Stat {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return Stat{ID: f.id, Ins: len(f.ins), Del: len(f.del), Sealed: f.sealed}
}

// Sealed describes one epoch sealed by Chain.Seal.
type Sealed struct {
	// ID is the sealed epoch's id.
	ID int64
	// Ins and Del are the record counts it was sealed with.
	Ins, Del int
}

// Chain is one shard's chain of epoch files: zero or more
// sealed (immutable, unapplied) epochs followed by exactly one open
// epoch. All methods are safe for concurrent use.
//
// The latch is shared across every Fork of one lineage, so the
// delete-existence check (Delete) is serialized against concurrent
// deletes even when old and new parts briefly coexist around a
// group-apply publish.
type Chain struct {
	mu   *sync.RWMutex // lineage latch, shared across forks
	next func() int64  // epoch-id allocator (per-column monotonic counter)

	// epochs is the chain in ascending id order, published whole under
	// mu and never modified after: CountAdj and SumAdj load it without
	// any latch. All files are sealed except the last, which is open
	// (Close, used under a part seal, temporarily breaks this until
	// Reopen or the chain is discarded).
	epochs atomic.Pointer[[]*File]
}

// NewChain creates a chain with one open epoch. next must return
// strictly increasing ids (one shared counter per column).
func NewChain(next func() int64) *Chain {
	ch := &Chain{mu: new(sync.RWMutex), next: next}
	ch.publish([]*File{newFile(next())})
	return ch
}

// files returns the published file list; callers must not modify it.
func (ch *Chain) files() []*File { return *ch.epochs.Load() }

// publish installs fs as the chain's file list; mu is held (or the
// chain is not shared yet).
func (ch *Chain) publish(fs []*File) { ch.epochs.Store(&fs) }

// appendOpen publishes a copy of the list with a fresh open epoch at
// its end; mu is held.
func (ch *Chain) appendOpen() {
	fs := ch.files()
	ch.publish(append(fs[:len(fs):len(fs)], newFile(ch.next())))
}

// open returns the chain's last (open) file.
func (ch *Chain) open() *File {
	fs := ch.files()
	return fs[len(fs)-1]
}

// Insert adds one logical instance of v to the open epoch — it
// cancels one pending anti-matter record of v there if the open epoch
// holds one, else it adds a pending insert — reporting the epoch id it
// landed in. ok is false when the open epoch was sealed by a
// structural operation — the caller re-routes through the current
// shard map (it never parks).
func (ch *Chain) Insert(v int64) (epochID int64, ok bool) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	return ch.open().insert(v)
}

// Delete removes one logical instance of v if one exists: it cancels a
// pending insert of v in the open epoch or, failing that, adds an
// anti-matter record to the open epoch when baseCount instances in the
// part's base array (immutable, so the caller may count it outside the
// latch) plus the chain's net adjustment leave one. A pending insert in
// the open epoch proves a live instance whatever baseCount says (every
// earlier delete of v was admitted only against a live instance, so v's
// instances before the open epoch never number below zero), and so does
// a positive net adjustment: a caller may pass baseCount 0 first and
// count the base only when that finds nothing. The check-and-write is
// atomic under the lineage latch, so two racing deletes can never
// over-delete the last instance. ok is false when the open epoch was
// sealed concurrently (re-route, as with Insert).
func (ch *Chain) Delete(v int64, baseCount int64) (epochID int64, deleted, ok bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	fs := ch.files()
	open := fs[len(fs)-1]
	open.mu.Lock()
	defer open.mu.Unlock()
	if open.sealed {
		return 0, false, false
	}
	if open.cancel(&open.ins, v) {
		return open.id, true, true
	}
	logical := baseCount - CountRange(open.del, v, v+1)
	for _, f := range fs[:len(fs)-1] {
		logical += f.countAdj(v, v+1)
	}
	if logical <= 0 {
		return 0, false, true
	}
	open.del = InsertSorted(open.del, v)
	open.n.Add(1)
	return open.id, true, true
}

// CountAdj returns the chain's net count adjustment for [lo, hi)
// across every visible epoch, and the number of epochs consulted. It
// takes no chain latch, and a file's latch only when the file holds
// records: a read of a chain nothing was written to writes nothing
// shared. A write whose Insert or Delete returned before CountAdj was
// called is always seen.
func (ch *Chain) CountAdj(lo, hi int64) (adj int64, epochs int) {
	fs := ch.files()
	for _, f := range fs {
		adj += f.countAdj(lo, hi)
	}
	return adj, len(fs)
}

// SumAdj returns the chain's net sum adjustment for [lo, hi) across
// every visible epoch, and the number of epochs consulted; it latches
// as CountAdj does.
func (ch *Chain) SumAdj(lo, hi int64) (adj int64, epochs int) {
	fs := ch.files()
	for _, f := range fs {
		adj += f.sumAdj(lo, hi)
	}
	return adj, len(fs)
}

// Pending returns the total pending insert and delete counts across
// every epoch in the chain.
func (ch *Chain) Pending() (ins, del int) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	for _, f := range ch.files() {
		st := f.stat()
		ins += st.Ins
		del += st.Del
	}
	return ins, del
}

// Stats returns a per-epoch snapshot in chain order.
func (ch *Chain) Stats() []Stat {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	fs := ch.files()
	out := make([]Stat, len(fs))
	for i, f := range fs {
		out[i] = f.stat()
	}
	return out
}

// Len returns the number of epoch files in the chain.
func (ch *Chain) Len() int {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	return len(ch.files())
}

// OpenID returns the open epoch's id.
func (ch *Chain) OpenID() int64 {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	f := ch.open()
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.id
}

// Seal seals the open epoch and opens a fresh successor, so writers
// roll over without ever parking. Reports false (and seals nothing)
// when the open epoch is empty.
func (ch *Chain) Seal() (Sealed, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	f := ch.open()
	f.mu.Lock()
	if len(f.ins) == 0 && len(f.del) == 0 {
		f.mu.Unlock()
		return Sealed{}, false
	}
	f.sealed = true
	info := Sealed{ID: f.id, Ins: len(f.ins), Del: len(f.del)}
	f.mu.Unlock()
	ch.appendOpen()
	return info, true
}

// Roll is the checkpoint cut: after Roll, every record already written
// lives in a sealed epoch and every future write lands in an epoch
// with a later id. A non-empty open epoch is sealed (as Seal); an
// empty one is simply renumbered past the cut, avoiding empty-file
// churn on idle shards. An open epoch emptied by cancels is empty too:
// the writes it saw net to zero, so moving them past the cut or not
// changes neither side of it.
func (ch *Chain) Roll() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	f := ch.open()
	f.mu.Lock()
	if len(f.ins) == 0 && len(f.del) == 0 {
		f.id = ch.next()
		f.mu.Unlock()
		return
	}
	f.sealed = true
	f.mu.Unlock()
	ch.appendOpen()
}

// Close seals the open epoch WITHOUT opening a successor: the full
// stop used under a part seal (split, merge, parked apply), cutting
// off writers that still hold a stale pre-fork part. Callers must
// eventually Reopen the chain or discard it for a fresh one.
func (ch *Chain) Close() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	f := ch.open()
	f.mu.Lock()
	f.sealed = true
	f.mu.Unlock()
}

// Reopen appends a fresh open epoch after Close (a structural
// operation that found nothing to do).
func (ch *Chain) Reopen() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.appendOpen()
}

// SealedSnapshot returns the merged contents of every sealed epoch —
// the group-apply input — together with the highest sealed id (the
// watermark the successor part's base will incorporate) and the number
// of sealed epochs. The snapshot is stable: sealed epochs are
// immutable.
func (ch *Chain) SealedSnapshot() (ins, del []int64, watermark int64, epochs int) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	for _, f := range ch.files() {
		st := f.stat()
		if !st.Sealed {
			continue
		}
		f.mu.RLock()
		ins = append(ins, f.ins...)
		del = append(del, f.del...)
		f.mu.RUnlock()
		if st.ID > watermark {
			watermark = st.ID
		}
		epochs++
	}
	return ins, del, watermark, epochs
}

// Collect returns the merged contents of every epoch with id <=
// maxEpoch — the materialization input for snapshot-consistent reads
// (shard.Column.ImageAt). Epochs past the watermark are excluded even if sealed.
func (ch *Chain) Collect(maxEpoch int64) (ins, del []int64) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	for _, f := range ch.files() {
		f.mu.RLock()
		if f.id <= maxEpoch {
			ins = append(ins, f.ins...)
			del = append(del, f.del...)
		}
		f.mu.RUnlock()
	}
	return ins, del
}

// Fork returns the successor chain published with a group-applied
// part: the epochs with id > after (whose contents the new base does
// NOT yet incorporate), sharing the lineage latch and the file
// pointers — above all the open epoch, so writers holding the old part
// keep writing to the same file. The fresh chain gets a new open
// epoch if everything was applied.
func (ch *Chain) Fork(after int64) *Chain {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	var fs []*File
	for _, f := range ch.files() {
		if f.id > after {
			fs = append(fs, f)
		}
	}
	if n := len(fs); n == 0 || fs[n-1].stat().Sealed {
		fs = append(fs, newFile(ch.next()))
	}
	nc := &Chain{mu: ch.mu, next: ch.next}
	nc.publish(fs)
	return nc
}

// InsertSorted inserts v into the sorted slice s, returning the
// (possibly reallocated) slice. Shared sorted-multiset primitive of
// every differential file (epoch files here, the per-index pending
// file in internal/crackindex).
func InsertSorted(s []int64, v int64) []int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// CountRange counts values in [lo, hi) of a sorted slice.
func CountRange(s []int64, lo, hi int64) int64 {
	a := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	b := sort.Search(len(s), func(i int) bool { return s[i] >= hi })
	return int64(b - a)
}

// SumRange sums values in [lo, hi) of a sorted slice: two binary
// searches bound the qualifying run, the unrolled kernel sums it
// without materializing anything intermediate.
func SumRange(s []int64, lo, hi int64) int64 {
	a := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	b := sort.Search(len(s), func(i int) bool { return s[i] >= hi })
	return kernel.Sum(s[a:b])
}
