package shard_test

import (
	"testing"

	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/durable"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// TestDurableReopenHoldsNoRowIDs: a durable store's shards are
// value-only when created and again after a close and reopen from its
// snapshot.
func TestDurableReopenHoldsNoRowIDs(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{
		Shard:  shard.Options{Shards: 4, Seed: 9, Index: crackindex.Options{Layout: cracker.LayoutPairs}},
		NoSync: true,
	}
	withValues := opts
	withValues.Values = workload.NewUniqueUniform(20_000, 3).Values
	c, err := durable.Open(dir, withValues)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"open", "reopen"} {
		if ids := shard.RowIDShards(c.Column()); len(ids) != 0 {
			t.Fatalf("after %s: shards %v keep row ids", step, ids)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = durable.Open(dir, opts); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Recovered() {
		t.Fatal("the reopened store did not recover from its snapshot")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
