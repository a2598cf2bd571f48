package ingest

import (
	"slices"
	"testing"

	"adaptix/internal/shard"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

// warmQueries cracks the column with a deterministic query mix.
func warmQueries(col *shard.Column, domain int64, n int) {
	r := workload.NewRNG(123)
	for i := 0; i < n; i++ {
		lo := r.Int64n(domain)
		hi := lo + 1 + r.Int64n(domain-lo)
		col.Count(qctx, lo, hi)
	}
}

// imageSink is a SnapshotWriter that keeps the last image it was handed.
type imageSink struct {
	img shard.Image
	n   int
}

func (s *imageSink) write(img shard.Image) error {
	s.img = img
	s.n++
	return nil
}

func TestCheckpointPersistsCutsAndCracks(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 3)
	col := shard.New(d.Values, pieceOpts())
	warmQueries(col, d.Domain, 100)

	log := &memLog{}
	var snap imageSink
	g := New(col, Options{Log: log, SnapshotWriter: snap.write})
	if !g.Checkpoint() {
		t.Fatal("checkpoint failed")
	}
	if g.Stats().Checkpoints != 1 || snap.n != 1 {
		t.Fatalf("Checkpoints = %d, snapshots written = %d, want 1 and 1", g.Stats().Checkpoints, snap.n)
	}
	if n := len(log.logged()); n != 0 {
		t.Fatalf("a checkpoint appended %d log records, want none", n)
	}
	if !slices.Equal(snap.img.Bounds, col.Bounds()) {
		t.Fatalf("image cuts %v, column %v", snap.img.Bounds, col.Bounds())
	}
	cracks := col.CrackBoundaries()
	if len(snap.img.Shards) != len(cracks) {
		t.Fatalf("image holds %d shards, column %d", len(snap.img.Shards), len(cracks))
	}
	for i, sh := range snap.img.Shards {
		got := make([]int64, len(sh.Seeds))
		for j, b := range sh.Seeds {
			got[j] = b.Value
		}
		if !slices.Equal(got, cracks[i]) {
			t.Fatalf("shard %d: image boundaries %v, column %v", i, got, cracks[i])
		}
	}
}

func TestCheckpointTruncatesLogPrefix(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 5)
	col := shard.New(d.Values, pieceOpts())
	sink, err := wal.NewFileSink(t.TempDir(), wal.SinkOptions{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap imageSink
	g := New(col, Options{Log: sink, Sink: sink, SnapshotWriter: snap.write, ApplyThreshold: 64})

	// Generate structural traffic, then checkpoint.
	r := workload.NewRNG(9)
	for i := 0; i < 500; i++ {
		if err := g.Insert(qctx, r.Int64n(d.Domain)); err != nil {
			t.Fatal(err)
		}
	}
	g.Maintain()
	before, err := sink.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Checkpoint() {
		t.Fatal("checkpoint failed")
	}
	after, err := sink.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 2 || len(after) != 1 || after[0] <= before[len(before)-1] {
		t.Fatalf("checkpoint did not truncate: segments %v before, %v after", before, after)
	}

	// The image alone restores the column: same contents, same pieces.
	re := shard.Restore(snap.img, pieceOpts())
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.CrackBoundaries()[0], col.CrackBoundaries()[0]) {
		t.Fatal("restored shard 0 lost boundaries")
	}
	checkAgainstModel(t, re, col.Values(), d.Domain)
}

func TestAutomaticCheckpointCadence(t *testing.T) {
	d := workload.NewUniqueUniform(1<<13, 7)
	col := shard.New(d.Values, pieceOpts())
	var snap imageSink
	g := New(col, Options{Log: &memLog{}, SnapshotWriter: snap.write, ApplyThreshold: 64, CheckpointEvery: 1})
	r := workload.NewRNG(11)
	for i := 0; i < 300; i++ {
		if err := g.Insert(qctx, r.Int64n(d.Domain)); err != nil {
			t.Fatal(err)
		}
	}
	g.Maintain()
	st := g.Stats()
	if st.Applied == 0 {
		t.Fatal("expected group-applies")
	}
	if st.Checkpoints == 0 || snap.n == 0 {
		t.Fatal("CheckpointEvery=1 Maintain pass took no checkpoint")
	}
}
