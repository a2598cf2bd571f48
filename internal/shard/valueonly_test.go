package shard

import (
	"math"
	"testing"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/workload"
)

// rowIDShards returns the ordinals of the shards whose index keeps a
// row-id column. A product column has none: every array its build,
// rebuilds and restore hand to crackindex.NewOwned stores values only.
func rowIDShards(c *Column) []int {
	var out []int
	for i, p := range c.m.Load().shards {
		if p.ix == nil || p.ix.HasRowIDs() {
			out = append(out, i)
		}
	}
	return out
}

// RowIDShards exports rowIDShards to the external test package, which
// reopens a durable store.
var RowIDShards = rowIDShards

// TestShardArraysHoldNoRowIDs: in both layouts, the arrays of a fresh
// build, a group-apply, a split, a merge and a restore from an image
// (what a durable reopen runs) are value-only, and the column stays
// valid and answers like the reference at every step.
func TestShardArraysHoldNoRowIDs(t *testing.T) {
	for _, layout := range []cracker.Layout{cracker.LayoutSplit, cracker.LayoutPairs} {
		d := workload.NewUniqueUniform(40_000, 5)
		c := New(d.Values, Options{Shards: 4, Seed: 1, Index: crackindex.Options{Layout: layout}})
		check := func(step string, wantRows int) {
			t.Helper()
			if ids := rowIDShards(c); len(ids) != 0 {
				t.Fatalf("%v, after %s: shards %v keep row ids", layout, step, ids)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%v, after %s: %v", layout, step, err)
			}
			if n, _, err := c.Count(qctx, 1000, 30_000); err != nil || n != int64(wantRows) {
				t.Fatalf("%v, after %s: Count = %d, %v; want %d", layout, step, n, err, wantRows)
			}
		}
		check("New", 29_000)
		for v := int64(1000); v < 1100; v++ {
			if err := c.Insert(qctx, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.DeleteValue(qctx, 2000); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.ApplyShard(c.Home(1000)); !ok {
			t.Fatalf("%v: group-apply declined", layout)
		}
		check("group-apply", 29_099)
		if _, ok := c.SplitShard(c.Home(20_000)); !ok {
			t.Fatalf("%v: split declined", layout)
		}
		check("split", 29_099)
		if _, ok := c.MergeShards(0); !ok {
			t.Fatalf("%v: merge declined", layout)
		}
		check("merge", 29_099)
		c = Restore(c.ImageAt(math.MaxInt64), c.Options())
		check("Restore", 29_099)
	}
}
