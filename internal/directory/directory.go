// Package directory implements the table of contents of a cracked
// array (paper §5.2): the sorted set of crack boundaries, each mapping a
// boundary value to its array position, the prefix sum of the rows
// below it and — for the piece starting there — a short-term latch. It
// gives instant access to previously requested key ranges and, for
// non-exact matches, the shortest enclosing piece for further cracking.
//
// Boundaries are only ever added, and what an entry says never changes
// once it exists. That makes a balanced tree under a mutex unnecessary:
// entries live in sorted chunks of parallel arrays (at most chunkCap
// entries each) under one small top level of first keys, and every
// chunk is immutable once published. A writer copies the one chunk its
// cuts fall into and stores the copy into the chunk's top-level slot;
// only when a chunk outgrows chunkCap is it split and the top level
// itself replaced, behind one atomic pointer. A reader loads that
// pointer, finds its chunk through the top level's radix hint (one table
// read and a search of a key or two), loads one slot and binary-searches
// one chunk: no mutex, no pointer chase, and whatever version it reaches
// is a consistent — at worst slightly stale, i.e. coarser — table,
// because a stale version only lacks boundaries, it never holds a wrong
// one.
//
// Readers need no synchronization at all. Writers (Insert, Publish,
// Build, Ref.SetLatch) must be serialized by the caller: the cracked
// column holds its structure mutex around them, the single-writer
// substrates (hybrid, sideways) their write latch.
package directory

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"adaptix/internal/latch"
)

// chunkCap bounds the entries of one chunk; bulk builds and splits fill
// chunks to chunkFill so that the next few cuts find room. One constant,
// chosen on BenchmarkDirectory (root bench_test.go) at 32 Ki boundaries,
// swept over 32 / 64 / 128: a publish copies one chunk, and every split
// copies the top level (and rebuilds its hint), whose size is
// boundaries/capacity — a two-cut publish costs 5.5 / 2.7 / 2.9 µs and a
// one-cut publish 1.8 / 1.9 / 2.4 µs, while a pair of lookups (140 / 156
// / 168 ns) hardly cares where the two levels are cut. 64 is the knee.
const (
	chunkCap  = 64
	chunkFill = chunkCap * 3 / 4
)

// Entry is one boundary: every row at a position < Pos holds a value
// < Key, every other row a value >= Key, and Sum is the (wrapping) sum
// of the former. Latch is the latch of the piece starting at Key, nil
// until a query first needs it.
type Entry struct {
	Key   int64
	Pos   int
	Sum   int64
	Latch *latch.Latch
}

// chunk is one sorted run of entries as parallel arrays. key and at are
// never written after the chunk is published. A latch slot goes
// from nil to its latch once (Ref.SetLatch, in the current version only)
// and every later version of the chunk carries the latch over, so a
// non-nil slot reads the same latch from every version.
type chunk struct {
	key   []int64
	at    []int64 // entry i's position at 2i, its prefix sum at 2i+1: one cache line per hit
	latch []atomic.Pointer[latch.Latch]
}

func newChunk(n int) *chunk {
	buf := make([]int64, 3*n)
	return &chunk{key: buf[:n:n], at: buf[n:], latch: make([]atomic.Pointer[latch.Latch], n)}
}

func (c *chunk) set(i int, e Entry) {
	c.key[i], c.at[2*i], c.at[2*i+1] = e.Key, int64(e.Pos), e.Sum
	if e.Latch != nil {
		c.latch[i].Store(e.Latch)
	}
}

// copyFrom copies src's entries [a, b) to c starting at dst. The latch
// slots move as plain memory: c is not published yet, and src's slots
// are written only by writers, whom the caller serializes.
func (c *chunk) copyFrom(dst int, src *chunk, a, b int) int {
	copy(c.key[dst:], src.key[a:b])
	copy(c.at[2*dst:], src.at[2*a:2*b])
	copy(c.latch[dst:], src.latch[a:b])
	return b - a
}

// with returns a copy of c with the strictly increasing cuts merged in.
func (c *chunk) with(cuts []Entry) *chunk {
	nc := newChunk(len(c.key) + len(cuts))
	src, dst := 0, 0
	for _, e := range cuts {
		at := src + upperBound(c.key[src:], e.Key)
		dst += nc.copyFrom(dst, c, src, at)
		if dst > 0 && nc.key[dst-1] >= e.Key {
			panic(fmt.Sprintf("directory: cut at %d is out of order or already a boundary", e.Key))
		}
		nc.set(dst, e)
		dst++
		src = at
	}
	nc.copyFrom(dst, c, src, len(c.key))
	return nc
}

// split cuts c into chunks of about chunkFill entries.
func (c *chunk) split() []*chunk {
	n := len(c.key)
	parts := make([]*chunk, (n+chunkFill-1)/chunkFill)
	for i := range parts {
		a, b := i*n/len(parts), (i+1)*n/len(parts)
		parts[i] = newChunk(b - a)
		parts[i].copyFrom(0, c, a, b)
	}
	return parts
}

// top is one version of the top level: slot i holds the chunk whose keys
// lie in [first[i], first[i+1]). first is immutable; a slot is replaced
// whenever its chunk gains entries. first[0] is never compared: chunk 0
// takes every key below first[1].
type top struct {
	first []int64
	slots []atomic.Pointer[chunk]
	hint  hint
}

// hint is a radix table over a top level's first keys: bucket b covers
// the key range [base + b<<shift, base + (b+1)<<shift), and jump[b] is
// the number of first keys (first[1:]) below it. The chunk holding v is
// then found by one table read plus a search of the keys inside v's
// bucket — about one, since there are at least as many buckets as keys —
// instead of a binary search of the whole level, whose probes mispredict
// on every other step. A converged shard's level holds
// hundreds of chunks, and a fresh one's seeds add more. The range spans
// the keys between the trim-th smallest and the trim-th largest, so that
// a few outliers — a piece starting near either end of the key space —
// cannot stretch the buckets until all other keys share one; a key
// outside the range is found by a search of the few keys out there.
type hint struct {
	base  int64
	shift uint
	jump  []int32 // buckets+1 entries: jump[buckets] counts every key below the last bucket's end
}

func newTop(first []int64, slots []atomic.Pointer[chunk]) *top {
	t := &top{first: first, slots: slots}
	keys := first[1:]
	n, trim := len(keys), len(keys)/32+1
	if 2*trim >= n {
		trim = 0
	}
	buckets := 1 << bits.Len(uint(n))
	h := hint{jump: make([]int32, buckets+1)}
	if n > 0 {
		h.base = keys[trim]
		span := uint64(keys[n-1-trim] - h.base)
		h.shift = uint(max(bits.Len64(span)-bits.Len(uint(buckets))+1, 0))
	}
	for _, k := range keys {
		switch d := uint64(k-h.base) >> h.shift; {
		case k < h.base:
			h.jump[0]++
		case d < uint64(buckets):
			h.jump[d+1]++
		}
	}
	for b := range buckets {
		h.jump[b+1] += h.jump[b]
	}
	t.hint = h
	return t
}

// chunkOf returns the slot of the chunk that holds v: the number of first
// keys (first[1:]) <= v.
func (t *top) chunkOf(v int64) int {
	h := &t.hint
	lo, hi := 0, len(t.first)-1
	switch d := uint64(v-h.base) >> h.shift; {
	case v < h.base:
		hi = int(h.jump[0])
	case d < uint64(len(h.jump)-1):
		lo, hi = int(h.jump[d]), int(h.jump[d+1])
	default:
		lo = int(h.jump[len(h.jump)-1])
	}
	return lo + upperBound(t.first[1+lo:1+hi], v)
}

// replace returns a copy of t with slot ci replaced by parts. The other
// slots move as plain memory, like latch slots in copyFrom.
func (t *top) replace(ci int, parts []*chunk) *top {
	first := make([]int64, len(parts))
	slots := make([]atomic.Pointer[chunk], len(parts))
	for i, c := range parts {
		first[i] = c.key[0]
		slots[i].Store(c)
	}
	first[0] = t.first[ci]
	return newTop(slices.Concat(t.first[:ci], first, t.first[ci+1:]), slices.Concat(t.slots[:ci], slots, t.slots[ci+1:]))
}

// upperBound returns the number of elements of the sorted slice a that
// are <= v. A plain branching loop on purpose: an arithmetic
// (branch-free) halving is nearly twice as fast on keys that sit in L1,
// but a converged query's chunks come from L3 or memory, where the
// speculated next probe of a branching search overlaps the misses that a
// data-dependent address computation serializes — end to end the
// branch-free form was no faster (-3 % over 5 alternating runs of the
// warm_point shape).
func upperBound(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (t *top) floor(v int64) Ref {
	ci := t.chunkOf(v)
	c := t.slots[ci].Load()
	return Ref{t: t, c: c, ci: ci, i: upperBound(c.key, v) - 1}
}

// Dir is a directory. The zero value is empty and ready to use.
type Dir struct {
	top atomic.Pointer[top]
	n   atomic.Int64
}

// Ref addresses one entry of one version of the directory. What it
// reads of the entry itself (Key, Pos, Sum) is permanent; Next is the
// successor as of the version the Ref was looked up in, which a later
// cut between the two makes stale. The zero Ref addresses nothing.
type Ref struct {
	t  *top
	c  *chunk
	ci int // c's slot in t
	i  int // index in c; -1: before the first entry
}

// OK reports whether r addresses an entry.
func (r Ref) OK() bool { return r.c != nil && r.i >= 0 }

// Key returns the boundary value.
func (r Ref) Key() int64 { return r.c.key[r.i] }

// Pos returns the boundary's array position.
func (r Ref) Pos() int { return int(r.c.at[2*r.i]) }

// Sum returns the boundary's prefix sum.
func (r Ref) Sum() int64 { return r.c.at[2*r.i+1] }

// Latch returns the latch of the piece starting at r, or nil when none
// has been installed in (or carried over into) r's version.
func (r Ref) Latch() *latch.Latch { return r.c.latch[r.i].Load() }

// SetLatch installs l as the latch of the piece starting at r. Writer
// side: r must come from a lookup made under the caller's writer
// serialization (so that it addresses the current version), and its
// Latch must be nil.
func (r Ref) SetLatch(l *latch.Latch) { r.c.latch[r.i].Store(l) }

// Next returns the entry after r in r's version (not OK after the last).
// From a failed Floor it is the first entry.
func (r Ref) Next() Ref {
	switch {
	case r.c == nil:
		return Ref{}
	case r.i+1 < len(r.c.key):
		r.i++
	case r.ci+1 < len(r.t.slots):
		r.ci++
		r.c, r.i = r.t.slots[r.ci].Load(), 0
	default:
		return Ref{}
	}
	return r
}

// Floor returns the entry with the largest key <= v. When there is none
// the result is not OK, and its Next is the directory's first entry.
func (d *Dir) Floor(v int64) Ref {
	if t := d.top.Load(); t != nil {
		return t.floor(v)
	}
	return Ref{}
}

// Floor2 is Floor(a), Floor(b) for a <= b against one version, the
// second lookup skipping whatever the first already decided.
func (d *Dir) Floor2(a, b int64) (ra, rb Ref) {
	t := d.top.Load()
	if t == nil {
		return Ref{}, Ref{}
	}
	ra = t.floor(a)
	if ra.ci+1 < len(t.first) && b >= t.first[ra.ci+1] {
		return ra, t.floor(b)
	}
	rb = ra
	rb.i += upperBound(ra.c.key[ra.i+1:], b)
	return ra, rb
}

// Span returns the positions [lo, hi) of the piece holding v in an array
// of n rows: the positions of the boundaries around v, 0 and n where
// there is none. exact reports that v itself is a boundary, at lo == hi.
func (d *Dir) Span(v int64, n int) (lo, hi int, exact bool) {
	f := d.Floor(v)
	if f.OK() {
		if lo = f.Pos(); f.Key() == v {
			return lo, lo, true
		}
	}
	if c := f.Next(); c.OK() {
		n = c.Pos()
	}
	return lo, n, false
}

// Current returns r as the current version holds it: r itself while no
// later publish has replaced its chunk, a fresh lookup of its key
// otherwise. A caller that holds the latch of the piece starting at r
// reads that piece's extent off Current(r).Next(): only the latch holder
// can cut the piece, and every cut made before the latch was granted is
// published by then (the Figure 10 re-determination).
func (d *Dir) Current(r Ref) Ref {
	if t := d.top.Load(); t != r.t || t.slots[r.ci].Load() != r.c {
		return t.floor(r.Key())
	}
	return r
}

// Len returns the number of entries.
func (d *Dir) Len() int { return int(d.n.Load()) }

// Ascend yields the entries in increasing key order until yield returns
// false. It reads one top-level version chunk by chunk without stopping
// writers, so a cut published meanwhile may or may not be seen; what is
// seen is sorted and every entry is a boundary.
func (d *Dir) Ascend(yield func(Entry) bool) {
	t := d.top.Load()
	if t == nil {
		return
	}
	for ci := range t.slots {
		c := t.slots[ci].Load()
		for i, k := range c.key {
			if !yield(Entry{Key: k, Pos: int(c.at[2*i]), Sum: c.at[2*i+1], Latch: c.latch[i].Load()}) {
				return
			}
		}
	}
}

// Build replaces the contents with the given entries, which must be
// strictly increasing in Key, in one pass.
func (d *Dir) Build(entries []Entry) {
	d.n.Store(int64(len(entries)))
	if len(entries) == 0 {
		d.top.Store(nil)
		return
	}
	chunks := make([]*chunk, (len(entries)+chunkFill-1)/chunkFill)
	for ci := range chunks {
		a, b := ci*len(entries)/len(chunks), (ci+1)*len(entries)/len(chunks)
		chunks[ci] = newChunk(b - a)
		for i, e := range entries[a:b] {
			if a+i > 0 && entries[a+i-1].Key >= e.Key {
				panic(fmt.Sprintf("directory: entry %d (key %d) is out of order", a+i, e.Key))
			}
			chunks[ci].set(i, e)
		}
	}
	empty := top{first: []int64{math.MinInt64}, slots: make([]atomic.Pointer[chunk], 1)}
	d.top.Store(empty.replace(0, chunks))
}

// Insert publishes one boundary.
func (d *Dir) Insert(key int64, pos int, sum int64) {
	d.Publish([]Entry{{Key: key, Pos: pos, Sum: sum}})
}

// Publish adds the cuts, which must be strictly increasing in Key and
// not yet present. The cuts of one crack fall into one piece and hence
// one chunk: that chunk is copied once with all of them merged in and
// the copy stored into its slot, so a reader sees none or all of them.
// (Cuts that span chunks are published chunk by chunk, lowest first.)
func (d *Dir) Publish(cuts []Entry) {
	for len(cuts) > 0 {
		t := d.top.Load()
		if t == nil {
			d.Build(cuts)
			return
		}
		ci := t.chunkOf(cuts[0].Key)
		n := len(cuts)
		if ci+1 < len(t.first) {
			for n = 1; n < len(cuts) && cuts[n].Key < t.first[ci+1]; n++ {
			}
		}
		c := t.slots[ci].Load().with(cuts[:n])
		if len(c.key) <= chunkCap {
			t.slots[ci].Store(c)
		} else {
			d.top.Store(t.replace(ci, c.split()))
		}
		d.n.Add(int64(n))
		cuts = cuts[n:]
	}
}

// Validate checks the directory's own invariants (callers check what the
// entries say about their array): every chunk holds between one and
// chunkCap entries, keys are strictly increasing within and across
// chunks, every top-level first key is its chunk's first key, the top
// level's hint finds every first key's chunk, and the chunks hold exactly
// Len entries. It must run while no writer does.
func (d *Dir) Validate() error {
	n := 0
	if t := d.top.Load(); t != nil {
		var prev int64
		for ci := range t.slots {
			c := t.slots[ci].Load()
			if len(c.key) == 0 || len(c.key) > chunkCap {
				return fmt.Errorf("directory: chunk %d holds %d entries (capacity %d)", ci, len(c.key), chunkCap)
			}
			if ci > 0 && t.first[ci] != c.key[0] {
				return fmt.Errorf("directory: top level lists %d as first key of chunk %d, the chunk starts at %d", t.first[ci], ci, c.key[0])
			}
			for i, k := range c.key {
				if n+i > 0 && k <= prev {
					return fmt.Errorf("directory: key %d after %d in chunk %d", k, prev, ci)
				}
				prev = k
			}
			n += len(c.key)
		}
		probes := []int64{math.MinInt64, math.MaxInt64}
		for _, k := range t.first[1:] {
			probes = append(probes, k-1, k, k+1)
		}
		for _, v := range probes {
			if got, want := t.chunkOf(v), upperBound(t.first[1:], v); got != want {
				return fmt.Errorf("directory: the top level's hint finds %d in chunk %d, its first keys in chunk %d", v, got, want)
			}
		}
	}
	if n != d.Len() {
		return fmt.Errorf("directory: chunks hold %d entries, Len says %d", n, d.Len())
	}
	return nil
}
