// Package wcapture is the workload capture subsystem: an always
// available, low-overhead recorder of the query and write stream one
// index observes, plus a deterministic replayer (replay.go) that turns
// any captured trace into a reproducible benchmark.
//
// The paper's central claim — index build cost amortized into the
// observed query stream — makes the workload itself the system's most
// important input, yet the observability layers of earlier PRs only
// show what the engine did *about* it. This package records the stream
// itself: every sampled read (predicate bounds, method, ctx query tag,
// epoch depth, touched rows, and the answer as a checksum) and every
// sampled write (routed key, delete flag, found flag) as a fixed-width
// 48-byte binary record (trace.go) pushed through a lock-free ring.
// The ring doubles as the in-memory retention (Retained, newest N
// records, the flight-recorder idea applied to the workload), and an
// optional size-rotated on-disk trace file persists the full stream
// for offline replay.
//
// Recording is wait-free and allocation-free: the records live in a
// metrics.Ring, the lock-free ring under the flight recorder too, and
// the sink drainer keeps its own cursor over the ring's sequence
// numbers (drain). The disabled path is a nil
// check plus one atomic load, so a recorder is threaded through the
// hot paths unconditionally and stays inside the query path's 0-alloc
// and ≤5% observability overhead gates.
//
// On top of the raw records a streaming characterizer maintains the
// live workload signature (Signature): read/write mix, the selectivity
// and predicate-width distribution, inter-query key locality, and a
// sequentiality score (a sequential range sweep, the worst case of
// cracking at the query bounds alone, scores near 1; the index's crack
// policy is robust to it by default — see crackindex's refine step — so
// the score describes the workload, it is not a call to reconfigure).
package wcapture

import (
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/metrics"
)

// RecKind classifies one captured workload record.
type RecKind uint8

const (
	// RecCount is a range-count query (Result = the count returned).
	RecCount RecKind = iota + 1
	// RecSum is a range-sum query (Result = the sum returned).
	RecSum
	// RecInsert is a routed insert (Lo = the inserted key).
	RecInsert
	// RecDelete is a routed delete (Lo = the key; Result = 1 when an
	// instance existed, 0 otherwise).
	RecDelete
)

// String returns the record kind's trace-dump name.
func (k RecKind) String() string {
	switch k {
	case RecCount:
		return "count"
	case RecSum:
		return "sum"
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Record is one decoded workload record. Reads carry the predicate and
// the answer; writes carry the routed key in Lo. Result doubles as the
// capture-time checksum the replayer verifies (the query answer, or
// the delete's found flag).
type Record struct {
	// Kind classifies the record (count/sum/insert/delete).
	Kind RecKind `json:"kind"`
	// Method is the capture-side adaptive-indexing method ordinal
	// (adaptix.Method; informational — replay may target any method).
	Method uint8 `json:"method"`
	// Epochs is the epoch-chain depth the read observed (clamped to
	// 16 bits; 0 for writes).
	Epochs uint16 `json:"epochs"`
	// Tag is the FNV-1a hash of the ctx query tag (0 when untagged).
	Tag uint32 `json:"tag"`
	// T is the capture wall-clock time in Unix nanoseconds; replay's
	// original-pacing mode reproduces the inter-record gaps.
	T int64 `json:"t"`
	// Lo is the read predicate's lower bound, or the write's routed
	// key.
	Lo int64 `json:"lo"`
	// Hi is the read predicate's upper bound (0 for writes).
	Hi int64 `json:"hi"`
	// Result is the capture-time checksum: the query answer for reads,
	// the found flag for deletes, 0 for inserts.
	Result int64 `json:"result"`
	// Touched is the rows the read touched in index pieces (0 for
	// writes; convergence evidence, not part of the checksum).
	Touched int64 `json:"touched"`
}

// IsRead reports whether the record is a query (count or sum) rather
// than a write.
func (r Record) IsRead() bool { return r.Kind == RecCount || r.Kind == RecSum }

// Options configures a Recorder (the facade's WithWorkloadCapture).
type Options struct {
	// SampleEvery captures 1 in N operations (default 1: every
	// operation). Sampled-out operations cost one atomic add.
	SampleEvery int
	// Ring is the lock-free ring capacity in records — also the
	// in-memory retention Retained() serves (default 8192, minimum
	// 64).
	Ring int
	// Sink, when non-empty, is the path of the on-disk trace file a
	// background drainer appends every captured record to. Empty keeps
	// capture in-memory only (the ring retains the newest Ring
	// records).
	Sink string
	// MaxBytes rotates the sink file when it exceeds this size: the
	// current file is renamed to Sink+".1" (replacing any previous
	// rotation) and a fresh file is started, bounding disk use at
	// about twice MaxBytes. Default 256 MiB.
	MaxBytes int64
}

func (o Options) withDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	if o.Ring <= 0 {
		o.Ring = 8192
	}
	if o.Ring < 64 {
		o.Ring = 64
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	return o
}

// recWords is the width of one record in the ring: meta (kind<<56 |
// method<<48 | epochs<<32 | tag), t, lo, hi, result, touched.
const recWords = 6

// Recorder captures one index's workload stream. All recording methods
// are nil-safe, wait-free, and allocation-free; a disabled recorder
// (every index has one) costs a nil check and one atomic load per
// operation. Create with New; Close flushes and closes the sink.
type Recorder struct {
	enabled     atomic.Bool
	sampleEvery uint64
	tick        atomic.Uint64 // sampling clock (all operations)
	method      atomic.Uint32 // capture-side adaptix.Method ordinal

	ring *metrics.Ring // nil while disabled

	// Streaming signature state. The last-read fields are a telemetry
	// sketch: concurrent readers may interleave their updates, which
	// perturbs the locality estimate but never its safety.
	reads, writes      atomic.Int64
	widthH, jumpH      metrics.Histogram
	hasLast            atomic.Bool
	lastEnd, lastWidth atomic.Int64
	lastMid            atomic.Int64
	seqHits, pairs     atomic.Int64
	localHits          atomic.Int64
	domainLo, domainHi atomic.Int64
	domainW            atomic.Int64
	dropped            atomic.Int64
	dropping           atomic.Bool // edge-trigger latch for the drop flight event
	ob                 *metrics.Observer

	// Sink state, owned by the drainer goroutine (and by Close after
	// the drainer has stopped).
	sink      *traceSink
	cursor    uint64 // next record sequence the drainer will persist
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// drainInterval is the sink drainer's wake-up period: short enough
// that a ring sized for bursts rarely wraps past the cursor, long
// enough to batch encodes behind one buffered writer. A variable so
// that tests can take the ticker out and drain at points they choose.
var drainInterval = 5 * time.Millisecond

// New builds a recorder. With enabled false (the default for every
// index built without WithWorkloadCapture) the recorder allocates no
// ring and records nothing, but still serves a schema-complete zero
// Signature; o is ignored. With enabled true the ring is allocated,
// sampling is armed, and — when o.Sink is set — the on-disk trace file
// is created and a background drainer started. The
// wcapture_dropped_records counter is registered on ob's registry
// either way so the /metrics schema is stable.
func New(o Options, enabled bool, ob *metrics.Observer) (*Recorder, error) {
	r := &Recorder{ob: ob}
	if reg := ob.Registry(); reg != nil {
		reg.CounterFunc("wcapture_dropped_records",
			"workload records lost to capture-ring overflow before the sink drained them",
			r.Dropped)
	}
	if !enabled {
		return r, nil
	}
	o = o.withDefaults()
	r.sampleEvery = uint64(o.SampleEvery)
	r.ring = metrics.NewRing(o.Ring, recWords)
	if o.Sink != "" {
		s, err := newTraceSink(o.Sink, o.MaxBytes)
		if err != nil {
			return nil, err
		}
		r.sink = s
		r.stop = make(chan struct{})
		r.done = make(chan struct{})
		go r.drainLoop()
	}
	r.enabled.Store(true)
	return r, nil
}

// Active reports whether the recorder is capturing. Nil-safe; the
// hot paths gate their record calls (and the ctx tag extraction) on
// it.
func (r *Recorder) Active() bool { return r != nil && r.enabled.Load() }

// SetMethod records the capture-side adaptive-indexing method ordinal
// stamped into every subsequent record. Nil-safe.
func (r *Recorder) SetMethod(m uint8) {
	if r == nil {
		return
	}
	r.method.Store(uint32(m))
}

// SetDomain tells the characterizer the key domain [lo, hi] so
// selectivity and locality have a denominator. First call wins;
// nil-safe. The facade calls it with shard.Column.KeyDomain alongside
// the heatmap's SetKeyDomain.
func (r *Recorder) SetDomain(lo, hi int64) {
	if r == nil || hi <= lo || r.domainW.Load() != 0 {
		return
	}
	r.domainLo.Store(lo)
	r.domainHi.Store(hi)
	r.domainW.Store(hi - lo)
}

// sampleIn advances the sampling clock and reports whether this
// operation is captured.
func (r *Recorder) sampleIn() bool {
	if r.sampleEvery <= 1 {
		return true
	}
	return r.tick.Add(1)%r.sampleEvery == 0
}

// RecordRead captures one range query: predicate bounds, the answer
// (the replay checksum), rows touched, the epoch-chain depth observed,
// and the ctx query tag. Nil-safe, wait-free, allocation-free; the
// shard executor calls it on every successful query when Active.
func (r *Recorder) RecordRead(tag string, sum bool, lo, hi, result, touched int64, epochs int) {
	if r == nil || !r.enabled.Load() || !r.sampleIn() {
		return
	}
	kind := RecCount
	if sum {
		kind = RecSum
	}
	r.push(kind, tag, lo, hi, result, touched, epochs)

	// Streaming signature.
	r.reads.Add(1)
	w := hi - lo
	r.widthH.Record(w)
	mid := lo + w/2
	if r.hasLast.Load() {
		lastMid := r.lastMid.Load()
		jump := mid - lastMid
		if jump < 0 {
			jump = -jump
		}
		r.jumpH.Record(jump)
		r.pairs.Add(1)
		gap := lo - r.lastEnd.Load()
		if gap < 0 {
			gap = -gap
		}
		step := r.lastWidth.Load()
		if step < 1 {
			step = 1
		}
		if gap <= step {
			r.seqHits.Add(1)
		}
		if dw := r.domainW.Load(); dw > 0 && jump <= dw/64 {
			r.localHits.Add(1)
		}
	} else {
		r.hasLast.Store(true)
	}
	r.lastEnd.Store(hi)
	r.lastWidth.Store(w)
	r.lastMid.Store(mid)
}

// RecordWrite captures one routed write: the key, whether it was a
// delete, and — for deletes — whether an instance existed (the replay
// checksum). Nil-safe, wait-free, allocation-free; the ingest router
// calls it after every successful write when Active.
func (r *Recorder) RecordWrite(key int64, del, found bool) {
	if r == nil || !r.enabled.Load() || !r.sampleIn() {
		return
	}
	kind := RecInsert
	var res int64
	if del {
		kind = RecDelete
		if found {
			res = 1
		}
	}
	r.push(kind, "", key, 0, res, 0, 0)
	r.writes.Add(1)
}

// push claims the next ring slot and publishes one record through the
// slot-sequence guard.
func (r *Recorder) push(kind RecKind, tag string, lo, hi, result, touched int64, epochs int) {
	if epochs < 0 {
		epochs = 0
	}
	if epochs > 0xffff {
		epochs = 0xffff
	}
	meta := uint64(kind)<<56 | uint64(r.method.Load()&0xff)<<48 |
		uint64(uint16(epochs))<<32 | uint64(hashTag(tag))
	r.ring.Push(int64(meta), time.Now().UnixNano(), lo, hi, result, touched)
}

// decode unpacks one record's ring words.
func decode(w *[recWords]int64) Record {
	meta := uint64(w[0])
	return Record{
		Kind:    RecKind(meta >> 56),
		Method:  uint8(meta >> 48),
		Epochs:  uint16(meta >> 32),
		Tag:     uint32(meta),
		T:       w[1],
		Lo:      w[2],
		Hi:      w[3],
		Result:  w[4],
		Touched: w[5],
	}
}

// hashTag is FNV-1a 32 over the query tag ("" hashes to 0 so untagged
// records are distinguishable).
func hashTag(s string) uint32 {
	if s == "" {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Retained returns the in-memory retention — the newest ring-full of
// captured records, oldest first. Slots being concurrently overwritten
// are skipped rather than returned torn. Nil-safe (nil on a disabled
// recorder).
func (r *Recorder) Retained() []Record {
	if r == nil || r.ring == nil {
		return nil
	}
	lo, hi := r.ring.Window()
	out := make([]Record, 0, hi-lo)
	var w [recWords]int64
	for seq := lo; seq < hi; seq++ {
		if r.ring.Read(seq, w[:]) == 0 {
			out = append(out, decode(&w))
		}
	}
	return out
}

// Dropped returns the number of records lost to ring overflow before
// the sink drained them (always 0 without a sink: the ring then IS the
// retention, and overwriting the oldest is the retention policy, not a
// loss). Nil-safe.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// noteDrop accounts n lost records and, on the first loss of a burst,
// records an edge-triggered flight event (A = records lost in this
// burst's first observation, B = total lost so far) so silent trace
// loss is visible in /flight and adaptixstat.
func (r *Recorder) noteDrop(n int64) {
	total := r.dropped.Add(n)
	if !r.dropping.Swap(true) {
		if fl := r.ob.Flight(); fl != nil {
			fl.Record(metrics.EvCaptureDrop, -1, 0, n, total)
		}
	}
}

// drainLoop is the sink drainer: it wakes every drainInterval, drains
// newly published ring records to the trace file, and exits on stop
// (Close runs one final drain after it has exited).
func (r *Recorder) drainLoop() {
	defer close(r.done)
	t := time.NewTicker(drainInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.drain()
		case <-r.stop:
			return
		}
	}
}

// drain persists every stable ring record from the drainer's cursor up
// to the current head. If the ring wrapped past the cursor the gap is
// accounted as dropped records; a slot claimed but not yet published
// stops the pass (retried next tick). Runs only on the drainer
// goroutine, or on Close after the drainer has exited.
func (r *Recorder) drain() {
	floor, hi := r.ring.Window()
	cur := r.cursor
	if cur < floor {
		r.noteDrop(int64(floor - cur))
		cur = floor
	}
	lost := false
	var w [recWords]int64
	for seq := cur; seq < hi; seq++ {
		state := r.ring.Read(seq, w[:])
		if state < 0 {
			break // claimed but unpublished: retry next tick
		}
		if state > 0 {
			r.noteDrop(1) // lapped before or during this read
			lost = true
			cur = seq + 1
			continue
		}
		if err := r.sink.append(decode(&w)); err != nil {
			// Sink failure (disk full, rotation rename lost a race with
			// an external mover): account the record and keep capturing
			// — the in-memory retention and signature stay live.
			r.noteDrop(1)
			lost = true
		}
		cur = seq + 1
	}
	r.cursor = cur
	if !lost && cur == hi {
		r.dropping.Store(false) // clean pass: re-arm the edge trigger
	}
}

// Close stops capture, runs a final drain, and flushes and closes the
// sink. Idempotent, nil-safe; later calls return the first call's
// error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.closeOnce.Do(func() {
		r.enabled.Store(false)
		if r.sink == nil {
			return
		}
		close(r.stop)
		<-r.done
		r.drain()
		r.closeErr = r.sink.close()
	})
	return r.closeErr
}
