// Package engine defines the one query interface shared by the three
// approaches compared throughout the paper's §6 — plain scans, full
// indexing (sort once, then binary search), and adaptive indexing
// (database cracking, adaptive merging, hybrid crack-sort) — and by the
// sharded column that fans out over any of them. The harness drives any
// Engine with the same deterministic query streams.
package engine

import (
	"context"

	"adaptix/internal/crackindex"
)

// AggregateSource answers the paper's two query templates over one
// column with the one cost record of the stack, crackindex.OpStats.
// Adaptive merging, hybrid crack-sort, the baselines and shard.Column
// implement it as they are; a cracked column goes through
// SourceFromIndex. Implementations must be safe for concurrent use.
//
// Every query carries a context: cancellation before any work returns
// ctx.Err() with no refinement side effects, a deadline expiring while
// the query is parked on a latch unparks it promptly, and a query that
// returns a non-nil error returns no answer. context.Background()
// follows the uncancellable fast path throughout.
type AggregateSource interface {
	// Count evaluates Q1: select count(*) where lo <= A < hi.
	Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error)
	// Sum evaluates Q2: select sum(A) where lo <= A < hi.
	Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error)
}

// Engine is an AggregateSource with a display name: what the harness,
// the experiments and the benchmarks drive.
type Engine interface {
	AggregateSource
	// Name identifies the engine in experiment output.
	Name() string
}

// Named presents src as an Engine called name: a cracked column
// (SourceFromIndex), a sharded column, or a method under a
// configuration-specific label.
func Named(src AggregateSource, name string) Engine { return named{src, name} }

type named struct {
	AggregateSource
	name string
}

// Name implements Engine.
func (n named) Name() string { return n.name }

// SourceFromIndex presents a cracked-column index as an
// AggregateSource: the index's own Count and Sum take no context (its
// paper-figure callers have none), CountCtx and SumCtx do.
func SourceFromIndex(ix *crackindex.Index) AggregateSource { return indexSource{ix} }

type indexSource struct{ ix *crackindex.Index }

// Count implements AggregateSource.
func (s indexSource) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return s.ix.CountCtx(ctx, lo, hi)
}

// Sum implements AggregateSource.
func (s indexSource) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return s.ix.SumCtx(ctx, lo, hi)
}
