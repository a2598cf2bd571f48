// The flight recorder: a fixed ring of the last N notable events
// (sampled query spans, structural operations, stall events), always
// on, dumpable on demand. Like an aircraft flight recorder it answers
// "what was the index doing right before the stall?" without any
// prior configuration — the events are already there.
//
// Recording is wait-free and allocation-free: the events live in a Ring
// (ring.go), so a concurrent Dump observes either the old event, the
// new event, or skips the slot — never a torn mix.
package metrics

import "time"

// EventKind classifies a flight-recorder event.
type EventKind int32

const (
	// EvQuery is a sampled per-query span (Dur = end-to-end latency,
	// A = latch-wait ns, B = crack/refine ns).
	EvQuery EventKind = iota + 1
	// EvLatchStall is a latch wait that exceeded the stall threshold
	// (Dur = wait; A = 1 if the waiter was a reader).
	EvLatchStall
	// EvWriterStall is a writer parked on a sealed epoch longer than
	// the stall threshold (Dur = park time).
	EvWriterStall
	// EvSeal is an epoch seal (Shard = ordinal, A = sealed rows).
	EvSeal
	// EvApply is a group-apply of sealed epochs into a shard's base
	// (Dur = rebuild+publish time, A = rows applied).
	EvApply
	// EvSplit is a shard split (Dur = build time).
	EvSplit
	// EvMerge is a shard merge (Dur = build time).
	EvMerge
	// EvCheckpoint is a durable checkpoint (Dur = write+sync time).
	EvCheckpoint
	// EvHealth is a health-rule transition from the watchdog (A = rule
	// ordinal, B = 1 when the rule degraded, 0 when it recovered).
	EvHealth
	// EvCaptureDrop is a workload-capture ring overflow: the sink
	// drainer fell behind and records were lost (A = records lost when
	// the burst was first observed, B = total lost so far).
	// Edge-triggered: one event per loss burst, re-armed by the next
	// clean drain pass.
	EvCaptureDrop
)

// String returns the event kind's dump name.
func (k EventKind) String() string {
	switch k {
	case EvQuery:
		return "query"
	case EvLatchStall:
		return "latch-stall"
	case EvWriterStall:
		return "writer-stall"
	case EvSeal:
		return "seal"
	case EvApply:
		return "apply"
	case EvSplit:
		return "split"
	case EvMerge:
		return "merge"
	case EvCheckpoint:
		return "checkpoint"
	case EvHealth:
		return "health"
	case EvCaptureDrop:
		return "capture-drop"
	default:
		return "unknown"
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Seq is the global event sequence number (monotonic; gaps mean
	// the ring wrapped past overwritten events).
	Seq uint64 `json:"seq"`
	// When is the wall-clock capture time.
	When time.Time `json:"when"`
	// Kind classifies the event.
	Kind EventKind `json:"-"`
	// KindName is Kind's dump name (stable across versions).
	KindName string `json:"kind"`
	// Shard is the shard ordinal the event concerns (-1 if none).
	Shard int32 `json:"shard"`
	// Dur is the event's duration.
	Dur time.Duration `json:"dur_ns"`
	// A and B are kind-specific payloads (see the EventKind docs).
	A int64 `json:"a"`
	B int64 `json:"b"`
}

// flightWords is the width of one event in the ring: when (unix nanos),
// dur, kind<<32 | uint32(shard), a, b.
const flightWords = 5

// Flight is the flight recorder itself. The zero value is unusable; use
// NewFlight.
type Flight struct {
	ring *Ring
}

// NewFlight returns a recorder retaining the last n events (n is
// clamped to at least 16).
func NewFlight(n int) *Flight {
	if n < 16 {
		n = 16
	}
	return &Flight{ring: NewRing(n, flightWords)}
}

// Record captures one event, overwriting the oldest when the ring is
// full. Wait-free and allocation-free.
func (f *Flight) Record(kind EventKind, shard int32, dur time.Duration, a, b int64) {
	f.ring.Push(time.Now().UnixNano(), int64(dur), int64(kind)<<32|int64(uint32(shard)), a, b)
}

// Len returns the number of events currently retained.
func (f *Flight) Len() int {
	lo, hi := f.ring.Window()
	return int(hi - lo)
}

// Dump returns the retained events oldest first. Slots being
// concurrently overwritten are skipped rather than returned torn.
func (f *Flight) Dump() []Event {
	lo, hi := f.ring.Window()
	out := make([]Event, 0, hi-lo)
	var w [flightWords]int64
	for seq := lo; seq < hi; seq++ {
		if f.ring.Read(seq, w[:]) != 0 {
			continue // unwritten, in-progress, or already overwritten
		}
		kind := EventKind(w[2] >> 32)
		out = append(out, Event{
			Seq:      seq,
			When:     time.Unix(0, w[0]),
			Kind:     kind,
			KindName: kind.String(),
			Shard:    int32(uint32(w[2])),
			Dur:      time.Duration(w[1]),
			A:        w[3],
			B:        w[4],
		})
	}
	return out
}
