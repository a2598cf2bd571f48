package crackindex

import (
	"fmt"
	"time"

	"adaptix/internal/directory"
)

// TraceKind identifies a latch/crack trace event.
type TraceKind int

const (
	// TraceWantWrite: the query requested a write latch.
	TraceWantWrite TraceKind = iota
	// TraceAcquireWrite: the write latch was granted.
	TraceAcquireWrite
	// TraceReleaseWrite: the write latch was released.
	TraceReleaseWrite
	// TraceWantRead: the query requested a read latch.
	TraceWantRead
	// TraceAcquireRead: the read latch was granted.
	TraceAcquireRead
	// TraceReleaseRead: the read latch was released.
	TraceReleaseRead
	// TraceCracked: the query physically cracked a piece.
	TraceCracked
	// TraceDowngraded: a write latch was downgraded to a read latch.
	TraceDowngraded
)

// String returns the event kind's timeline label.
func (k TraceKind) String() string {
	switch k {
	case TraceWantWrite:
		return "want-W"
	case TraceAcquireWrite:
		return "acq-W"
	case TraceReleaseWrite:
		return "rel-W"
	case TraceWantRead:
		return "want-R"
	case TraceAcquireRead:
		return "acq-R"
	case TraceReleaseRead:
		return "rel-R"
	case TraceCracked:
		return "crack"
	default:
		return "downgrade"
	}
}

// TraceEvent is one record delivered to Options.Tracer. It reproduces
// the information of the Figure 8 latch timelines: which query touched
// which latch (whole column or a specific piece) in which mode.
type TraceEvent struct {
	// Time is the event timestamp.
	Time time.Time
	// Query is the tag the query's context carries (WithTag).
	Query string
	// Kind is the event type.
	Kind TraceKind
	// Column is true when the event concerns the column latch
	// (LatchColumn mode); otherwise the Piece* fields identify the
	// piece.
	Column bool
	// PieceLo is the piece's starting position (immutable).
	PieceLo int
	// PieceLoVal is the piece's starting boundary value (immutable);
	// minKey for the head piece.
	PieceLoVal int64
	// Bound is the crack bound for write-latch requests (0 otherwise).
	Bound int64
}

// String renders the event compactly for the latch-trace example.
func (e TraceEvent) String() string {
	target := "column"
	if !e.Column {
		target = fmt.Sprintf("piece@%d", e.PieceLo)
	}
	if e.Kind == TraceWantWrite || e.Kind == TraceCracked {
		return fmt.Sprintf("%-4s %-9s %s bound=%d", e.Query, e.Kind, target, e.Bound)
	}
	return fmt.Sprintf("%-4s %-9s %s", e.Query, e.Kind, target)
}

// trace delivers one event to the Tracer, if any; p is the entry the
// piece starts at, or the zero Ref for the column latch.
func (ix *Index) trace(ctx *opCtx, kind TraceKind, p directory.Ref, bound int64) {
	if ix.opts.Tracer == nil {
		return
	}
	ev := TraceEvent{Time: time.Now(), Query: ctx.tag, Kind: kind, Bound: bound}
	if !p.OK() {
		ev.Column = true
	} else {
		ev.PieceLo = p.Pos()
		ev.PieceLoVal = p.Key()
	}
	ix.opts.Tracer(ev)
}
