package ingest

import (
	"context"
	"slices"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// qctx is the uncancellable context the tests drive queries with.
var qctx = context.Background()

func pieceOpts() shard.Options {
	return shard.Options{
		Shards: 4, Seed: 9,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	}
}

// model is a brute-force mirror of the column's contents.
type model []int64

func (m *model) apply(op Op) {
	if !op.Delete {
		*m = append(*m, op.Value)
	} else if i := slices.Index(*m, op.Value); i >= 0 {
		*m = slices.Delete(*m, i, i+1)
	}
}

func checkAgainstModel(t *testing.T, col *shard.Column, m model, domain int64) {
	t.Helper()
	r := workload.NewRNG(77)
	for i := 0; i < 200; i++ {
		lo := r.Int64n(domain)
		hi := lo + 1 + r.Int64n(domain-lo)
		var n, sum int64
		for _, v := range m {
			if v >= lo && v < hi {
				n, sum = n+1, sum+v
			}
		}
		gotN, _, _ := col.Count(qctx, lo, hi)
		gotSum, _, _ := col.Sum(qctx, lo, hi)
		if gotN != n || gotSum != sum {
			t.Fatalf("[%d,%d): Count %d, Sum %d; want %d, %d", lo, hi, gotN, gotSum, n, sum)
		}
	}
}

func TestApplyBatchesAndGroupApplyPreserveAnswers(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 7)
	col := shard.New(d.Values, pieceOpts())
	log := &memLog{}
	g := New(col, Options{ApplyThreshold: 64, Log: log})
	m := model(slices.Clone(d.Values))

	// Warm some refinement so group-apply has boundaries to replay.
	for i := int64(0); i < 8; i++ {
		col.Count(qctx, i*(d.Domain/8), i*(d.Domain/8)+d.Domain/16)
	}

	batch := make([]Op, 0, 512)
	r := workload.NewRNG(11)
	for i := 0; i < 512; i++ {
		batch = append(batch, Op{Delete: i%4 == 3, Value: r.Int64n(d.Domain)})
	}
	if _, err := g.Apply(qctx, batch); err != nil {
		t.Fatal(err)
	}
	for _, op := range batch {
		m.apply(op)
	}

	pendingBefore := 0
	for _, s := range col.Snapshot() {
		pendingBefore += s.PendingInserts + s.PendingDeletes
	}
	if pendingBefore == 0 {
		t.Fatal("expected pending differential updates before Maintain")
	}

	if ops := g.Maintain(); ops == 0 {
		t.Fatal("Maintain performed no structural operations")
	}
	for _, s := range col.Snapshot() {
		if s.PendingInserts+s.PendingDeletes >= 64 {
			t.Errorf("shard %d still has %d+%d pending after Maintain",
				s.Shard, s.PendingInserts, s.PendingDeletes)
		}
	}
	checkAgainstModel(t, col, m, d.Domain)
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Applied == 0 {
		t.Error("Stats().Applied = 0 after group applies")
	}

	// The log holds the batch's writes and nothing of the group-applies:
	// one record per insert and per delete that found an instance.
	recs := log.logged()
	if int64(len(recs)) != g.Stats().LoggedWrites || len(recs) == 0 {
		t.Fatalf("log holds %d records, coordinator logged %d writes", len(recs), g.Stats().LoggedWrites)
	}
	ops := map[Op]int{}
	for _, op := range batch {
		ops[op]++
	}
	for _, r := range recs {
		if ops[Op{Delete: r.Delete, Value: r.Value}]--; ops[Op{Delete: r.Delete, Value: r.Value}] < 0 {
			t.Fatalf("logged %+v, which no op of the batch wrote", r)
		}
	}
}

func TestGroupApplyCarriesBoundaryKnowledgeOver(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 13)
	col := shard.New(d.Values, pieceOpts())
	g := New(col, Options{ApplyThreshold: 8})

	// Refine shard 0's range heavily, then flood it with inserts.
	for i := 0; i < 32; i++ {
		col.Count(qctx, int64(i*8), int64(i*8+4))
	}
	before := col.CrackBoundaries()
	for i := int64(0); i < 64; i++ {
		if err := g.Insert(qctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if g.Maintain() == 0 {
		t.Fatal("no group apply ran")
	}
	// The rebuilt shard must keep its whole piece structure — a group
	// apply carries the piece table over instead of resetting the index
	// to a single piece — and must not have cracked anything to get it.
	after := col.CrackBoundaries()
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Errorf("shard %d: boundaries after group apply = %v, before = %v", i, after[i], before[i])
		}
	}
	applied := 0
	for _, s := range col.Snapshot() {
		if s.BaseEpoch > 0 && s.PendingInserts == 0 {
			applied++
			if s.Cracks != 0 {
				t.Errorf("shard %d: rebuild cracked %d times; the piece table must be carried over", s.Shard, s.Cracks)
			}
		}
	}
	if applied == 0 {
		t.Error("no shard shows an applied epoch")
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceSplitsAndMerges(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 17)
	col := shard.New(d.Values, pieceOpts())
	g := New(col, Options{
		ApplyThreshold: 128, MinShardRows: 256, SplitFactor: 1.5,
	})
	before := col.NumShards()

	// Skewed storm: all inserts land in one narrow range.
	for i := 0; i < 6000; i++ {
		if err := g.Insert(qctx, int64(i%64)); err != nil {
			t.Fatal(err)
		}
	}
	g.Maintain()
	if g.Stats().Splits == 0 {
		t.Fatalf("no splits after skewed storm (shards %d -> %d)", before, col.NumShards())
	}
	if col.NumShards() <= before {
		t.Errorf("shard count %d did not grow from %d", col.NumShards(), before)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}

	// Delete the storm back out; rebalance should merge dwarf shards.
	for i := 0; i < 6000; i++ {
		if _, err := g.DeleteValue(qctx, int64(i%64)); err != nil {
			t.Fatal(err)
		}
	}
	g.Maintain()
	g.Rebalance()
	if g.Stats().Merges == 0 {
		t.Logf("shards after delete storm: %d (no merge triggered)", col.NumShards())
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two adjacent shards dwarfed by deletes (a residue keeps them
	// non-empty) fall below mergeFraction of the mean and merge.
	dwarfs := shard.New(d.Values, pieceOpts())
	b := dwarfs.Bounds()
	for v := b[0]; v < b[2]; v++ {
		if v%8 != 0 {
			dwarfs.DeleteValue(qctx, v)
		}
	}
	for i := dwarfs.NumShards() - 1; i >= 0; i-- {
		dwarfs.ApplyShard(i)
	}
	if _, merges := New(dwarfs, Options{ApplyThreshold: 1 << 30}).Rebalance(); merges == 0 {
		t.Fatal("rebalance left adjacent dwarf shards unmerged")
	}
	if err := dwarfs.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryRebuildsShardMap(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 19)
	col := shard.New(d.Values, pieceOpts())
	var snap imageSink
	g := New(col, Options{
		SnapshotWriter: snap.write,
		ApplyThreshold: 64, MinShardRows: 256, SplitFactor: 1.5,
	})
	for i := 0; i < 4000; i++ {
		if err := g.Insert(qctx, int64(i%128)); err != nil {
			t.Fatal(err)
		}
	}
	g.Maintain()
	if g.Stats().Splits == 0 {
		t.Fatal("expected at least one split for the recovery test")
	}
	if !g.Checkpoint() {
		t.Fatal("checkpoint failed")
	}

	// A column restored from the checkpoint's image has the live shard
	// map, splits included, and answers identically.
	rebuilt := shard.Restore(snap.img, pieceOpts())
	if got, want := rebuilt.Bounds(), col.Bounds(); !slices.Equal(got, want) {
		t.Fatalf("restored cuts %v, live map %v", got, want)
	}
	r := workload.NewRNG(23)
	for i := 0; i < 100; i++ {
		lo := r.Int64n(d.Domain)
		hi := lo + 1 + r.Int64n(d.Domain-lo)
		a, _, _ := col.Sum(qctx, lo, hi)
		b, _, _ := rebuilt.Sum(qctx, lo, hi)
		if a != b {
			t.Fatalf("Sum[%d,%d): live %d, restored %d", lo, hi, a, b)
		}
	}
}

// TestManyDistinctDeleteKeysDoNotStallMaintenance: every Delete cracks
// at its key, so a stream of distinct delete keys grows one shard's
// boundary set without bound. A group-apply that re-earned those
// boundaries one crack at a time cost boundaries x rows and left
// Maintain — and Close, which runs a final Maintain — stuck for minutes;
// carrying the piece table over makes the rebuild independent of the
// boundary count.
func TestManyDistinctDeleteKeysDoNotStallMaintenance(t *testing.T) {
	const rows, deletes = 1 << 20, 20000
	d := workload.NewUniqueUniform(rows, 41)
	col := shard.New(d.Values, shard.Options{Shards: 1, Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	g := New(col, Options{})
	// The worker starts after the deletes: a rebuild racing them would
	// publish a successor without the cracks that landed behind its walk,
	// and the boundary set would not build up.
	for i := int64(0); i < deletes; i++ {
		// Scattered, not ascending: an ascending sweep would make the
		// deletes themselves the sequential-cracking adversary.
		k := i * 7919 % deletes * (rows / deletes)
		if ok, err := g.DeleteValue(qctx, k); err != nil || !ok {
			t.Fatalf("delete %d = (%v, %v)", k, ok, err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Start()
		g.Maintain()
		g.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Maintain+Close still running after 10s with %d crack boundaries in one shard",
			len(col.CrackBoundaries()[0]))
	}
	if n := len(col.CrackBoundaries()[0]); n < deletes {
		t.Errorf("only %d boundaries for %d distinct delete keys: the scenario did not build up", n, deletes)
	}
	if got := col.Rows(); got != rows-deletes {
		t.Errorf("rows = %d, want %d", got, rows-deletes)
	}
	if st := col.Snapshot()[0]; st.PendingDeletes != 0 {
		t.Errorf("%d deletes still pending after Close", st.PendingDeletes)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}
