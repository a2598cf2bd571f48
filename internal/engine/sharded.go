package engine

import (
	"context"

	"adaptix/internal/crackindex"
)

// AggregateSource is the cost-reporting query surface shared by the
// cracked column (via SourceFromIndex) and the sharded column
// (shard.Column): context-aware Count/Sum with a merged per-operation
// cost breakdown. Declared as an interface here so the engine package
// does not depend on the shard package (which sits above crackindex).
type AggregateSource interface {
	// Count evaluates Q1: select count(*) where lo <= A < hi.
	Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error)
	// Sum evaluates Q2: select sum(A) where lo <= A < hi.
	Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error)
}

// indexSource adapts a cracked-column index to the AggregateSource
// surface (crackindex keeps plain and ctx-aware method pairs apart).
type indexSource struct{ ix *crackindex.Index }

// SourceFromIndex presents a cracked-column index as an
// AggregateSource.
func SourceFromIndex(ix *crackindex.Index) AggregateSource { return indexSource{ix} }

// Count implements AggregateSource.
func (s indexSource) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return s.ix.CountCtx(ctx, lo, hi)
}

// Sum implements AggregateSource.
func (s indexSource) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return s.ix.SumCtx(ctx, lo, hi)
}

// adapter implements Engine over any AggregateSource; Crack and
// Sharded share it.
type adapter struct {
	src  AggregateSource
	name string
}

// Name implements Engine.
func (a *adapter) Name() string { return a.name }

// Count implements Engine.
func (a *adapter) Count(ctx context.Context, lo, hi int64) (Result, error) {
	v, st, err := a.src.Count(ctx, lo, hi)
	if err != nil {
		return Result{}, err
	}
	return fromOpStats(v, st), nil
}

// Sum implements Engine.
func (a *adapter) Sum(ctx context.Context, lo, hi int64) (Result, error) {
	v, st, err := a.src.Sum(ctx, lo, hi)
	if err != nil {
		return Result{}, err
	}
	return fromOpStats(v, st), nil
}

// Sharded adapts a sharded column to the Engine interface, so the
// harness, metrics, and experiments drive it unchanged.
type Sharded struct {
	adapter
}

// NewSharded wraps src; name defaults to "sharded".
func NewSharded(src AggregateSource) *Sharded {
	return &Sharded{adapter{src: src, name: "sharded"}}
}

// NewShardedNamed wraps src with an explicit display name (used by the
// ablation benchmarks to distinguish shard counts).
func NewShardedNamed(src AggregateSource, name string) *Sharded {
	return &Sharded{adapter{src: src, name: name}}
}

// engineSource inverts adapter: it presents any Engine as an
// AggregateSource.
type engineSource struct{ e Engine }

// SourceFromEngine adapts an Engine to the AggregateSource surface, so
// the sharded column can build its per-shard indexes from engines that
// only implement Engine — adaptive merging, hybrid crack-sort — via
// shard.Options.Source.
func SourceFromEngine(e Engine) AggregateSource { return engineSource{e} }

// Count implements AggregateSource over the wrapped engine.
func (s engineSource) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return toOpStats(s.e.Count(ctx, lo, hi))
}

// Sum implements AggregateSource over the wrapped engine.
func (s engineSource) Sum(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	return toOpStats(s.e.Sum(ctx, lo, hi))
}

func toOpStats(r Result, err error) (int64, crackindex.OpStats, error) {
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	return r.Value, crackindex.OpStats{
		Wait:      r.Wait,
		Crack:     r.Refine,
		Critical:  r.Critical,
		Conflicts: r.Conflicts,
		Epochs:    r.Epochs,
		Touched:   r.Touched,
		Skipped:   r.Skipped,
	}, nil
}
