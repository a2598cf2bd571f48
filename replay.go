// The facade's workload capture & replay surface: read back what the
// recorder captured (live signature, in-memory retention, on-disk
// trace) and re-execute a trace against any Index — any method, shard
// count, or option set — verifying the capture-time checksums. See
// docs/OBSERVABILITY.md ("Workload capture & replay") for the record
// format, sampling semantics, and the replay determinism contract.
package adaptix

import (
	"context"

	"adaptix/internal/wcapture"
)

// Workload returns the live workload signature the capture recorder
// has characterized: read/write mix, selectivity and predicate-width
// quantiles, inter-query key locality, and the sequentiality score
// (near 1 for a sequential range sweep). Without
// WithWorkloadCapture it returns the schema-complete zero value.
func (ix *Index) Workload() WorkloadStats { return ix.cap.Signature() }

// WorkloadTrace returns the in-memory capture retention: the newest
// ring-full of captured records, oldest first (nil without
// WithWorkloadCapture). For the complete stream, configure
// CaptureOptions.Sink and load it back with ReadWorkloadTrace.
func (ix *Index) WorkloadTrace() []WorkloadRecord { return ix.cap.Retained() }

// ReadWorkloadTrace loads a captured on-disk trace (a
// CaptureOptions.Sink file, including its rotated predecessor when one
// exists), oldest record first. Close the capturing index first — the
// final sink drain runs on Close.
func ReadWorkloadTrace(path string) ([]WorkloadRecord, error) {
	return wcapture.ReadTrace(path)
}

// replayTarget adapts an Index to the replayer's execution surface.
type replayTarget struct{ ix *Index }

func (t replayTarget) Count(ctx context.Context, lo, hi int64) (int64, error) {
	r, err := t.ix.Count(ctx, lo, hi)
	return r.Value, err
}

func (t replayTarget) Sum(ctx context.Context, lo, hi int64) (int64, error) {
	r, err := t.ix.Sum(ctx, lo, hi)
	return r.Value, err
}

func (t replayTarget) Insert(ctx context.Context, v int64) error {
	return t.ix.Insert(ctx, v)
}

func (t replayTarget) Delete(ctx context.Context, v int64) (bool, error) {
	return t.ix.Delete(ctx, v)
}

// ReplayTrace re-executes a captured trace against ix in capture
// order: reads re-run as Count/Sum, writes as Insert/Delete. With
// ReplayOptions.Pace non-zero the capture timestamps pace the run
// (1 = original speed); with Verify every read's answer and every
// delete's found flag is checked against the checksum recorded at
// capture time.
//
// Determinism contract: a trace captured serially (one client,
// CaptureOptions.SampleEvery 1) replayed against an index built over
// the same logical dataset reproduces every checksum exactly,
// whatever method, shard count, or options ix was built with. Traces
// captured under concurrent clients are valid load but their record
// order is the capture ring's claim order, not necessarily the
// engine's linearization order — replay those with Verify off.
func ReplayTrace(ctx context.Context, ix *Index, recs []WorkloadRecord, o ReplayOptions) (ReplayReport, error) {
	return wcapture.Replay(ctx, recs, replayTarget{ix: ix}, o)
}
