// Package engine defines the common query-engine interface shared by
// the three approaches compared throughout the paper's §6 — plain
// scans, full indexing (sort once, then binary search), and adaptive
// indexing (database cracking) — plus adapters over the concrete
// implementations. The harness drives any Engine with the same
// deterministic query streams.
package engine

import (
	"context"
	"time"

	"adaptix/internal/crackindex"
)

// Result is the outcome of one query against an engine, with the cost
// breakdown the experiments plot (Figures 13 and 15).
type Result struct {
	// Value is the count or sum.
	Value int64
	// Wait is time spent blocked on latches.
	Wait time.Duration
	// Refine is time spent refining the index (cracking, sorting runs,
	// merging) as a side effect of the query.
	Refine time.Duration
	// Critical is the critical-path time of a fan-out execution — the
	// slowest per-shard sub-query — as opposed to Wait+Refine, which
	// sum total work across cores. Zero for single-domain engines.
	Critical time.Duration
	// Conflicts counts latch acquisitions that were not immediate.
	Conflicts int64
	// Epochs is the number of differential epoch files the answer's
	// snapshot read consulted (deepest per-shard chain; zero for
	// single-domain engines — see internal/epoch).
	Epochs int
	// Touched counts the rows the query physically visited (partitioned
	// or scanned; see crackindex.OpStats.Touched). Zero for engines that
	// do not report it.
	Touched int64
	// Skipped reports that an optional refinement was forgone.
	Skipped bool
}

// Engine answers the paper's two query templates over one column.
// Implementations must be safe for concurrent use.
//
// Every query carries a context: cancellation before any work returns
// ctx.Err() with no refinement side effects, a deadline expiring while
// the query is parked on a latch unparks it promptly, and a query that
// returns a non-nil error returns no answer. context.Background()
// follows the uncancellable fast path throughout.
type Engine interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Count evaluates Q1: select count(*) where lo <= A < hi.
	Count(ctx context.Context, lo, hi int64) (Result, error)
	// Sum evaluates Q2: select sum(A) where lo <= A < hi.
	Sum(ctx context.Context, lo, hi int64) (Result, error)
}

// Crack adapts a cracked-column index to the Engine interface.
type Crack struct {
	adapter
	ix *crackindex.Index
}

// NewCrack wraps ix; name defaults to "crack".
func NewCrack(ix *crackindex.Index) *Crack {
	return &Crack{adapter: adapter{src: SourceFromIndex(ix), name: "crack"}, ix: ix}
}

// NewCrackNamed wraps ix with an explicit display name (used by the
// ablation benchmarks to distinguish configurations).
func NewCrackNamed(ix *crackindex.Index, name string) *Crack {
	return &Crack{adapter: adapter{src: SourceFromIndex(ix), name: name}, ix: ix}
}

// Index returns the wrapped cracked-column index.
func (c *Crack) Index() *crackindex.Index { return c.ix }

func fromOpStats(v int64, st crackindex.OpStats) Result {
	return Result{
		Value:     v,
		Wait:      st.Wait,
		Refine:    st.Crack,
		Critical:  st.Critical,
		Conflicts: st.Conflicts,
		Epochs:    st.Epochs,
		Touched:   st.Touched,
		Skipped:   st.Skipped,
	}
}
