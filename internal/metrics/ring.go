package metrics

import "sync/atomic"

// Ring is a lock-free multi-writer ring of fixed-width records, the
// storage under the flight recorder (Flight) and the workload recorder
// (internal/wcapture). Recording is wait-free and allocation-free: a
// writer claims a sequence number with one atomic add, takes the slot
// with one CAS (see Push) and publishes through per-word atomics guarded
// by a slot sequence word — odd while the writer is mid-update, even
// (and equal to 2*(seq+1)) once record seq is stable — so a concurrent
// reader observes either a whole
// record or a slot it knows to skip, never a torn mix. No locks,
// race-detector clean. The zero value is unusable; use NewRing.
type Ring struct {
	width uint64          // payload words per record
	slots uint64          // records the ring holds
	words []atomic.Uint64 // per slot: the sequence guard, then width payload words
	next  atomic.Uint64   // next record sequence number
}

// NewRing returns a ring of n records of width int64 words each.
func NewRing(n, width int) *Ring {
	return &Ring{width: uint64(width), slots: uint64(n), words: make([]atomic.Uint64, n*(width+1))}
}

// slot returns the guard and payload words of the slot holding seq.
func (r *Ring) slot(seq uint64) []atomic.Uint64 {
	i := seq % r.slots * (r.width + 1)
	return r.words[i : i+r.width+1]
}

// Push publishes one record (len(words) must be the ring's width),
// overwriting the oldest when the ring is full.
//
// The writer takes the slot from the record it holds with one CAS on
// the guard, and gives its record up instead when the slot is not
// older than it: a writer of a later lap has the slot, or one of an
// earlier lap, preempted for a whole lap, is still writing it. Two
// writers' stores would otherwise interleave into a torn record the
// guard cannot reveal (the later one publishes its guard over the
// earlier one's stray words). Readers see a given-up record as never
// published, or as overwritten once a later one lands.
func (r *Ring) Push(words ...int64) {
	seq := r.next.Add(1) - 1
	s := r.slot(seq)
	if g := s[0].Load(); g&1 == 1 || g > 2*seq || !s[0].CompareAndSwap(g, 2*seq+1) {
		return
	}
	for i, w := range words {
		s[1+i].Store(uint64(w))
	}
	s[0].Store(2 * (seq + 1))
}

// Window returns the sequence numbers [lo, hi) the ring can still hold:
// hi is the next record to be claimed, lo the oldest not yet
// overwritten by a claim.
func (r *Ring) Window() (lo, hi uint64) {
	hi = r.next.Load()
	if hi > r.slots {
		lo = hi - r.slots
	}
	return lo, hi
}

// Read copies the payload of record seq into dst (len(dst) must be the
// ring's width) and compares the slot with it, like cmp.Compare: 0 when
// dst holds record seq whole, negative while seq is not yet published
// (claimed and mid-write, or not claimed at all), positive once a later
// record has overwritten it — before or during the copy.
func (r *Ring) Read(seq uint64, dst []int64) int {
	s := r.slot(seq)
	want := 2 * (seq + 1)
	if got := s[0].Load(); got != want {
		if got < want {
			return -1
		}
		return 1
	}
	for i := range dst {
		dst[i] = int64(s[1+i].Load())
	}
	if s[0].Load() != want {
		return 1
	}
	return 0
}
