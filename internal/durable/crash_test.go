package durable

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"adaptix/internal/engine"
	"adaptix/internal/hybrid"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

// crashSink is the WAL sink as the checkpoint writer sees it, with a
// hook right after the rotation.
type crashSink struct {
	wal.SegmentTruncator
	afterRotation func()
}

func (s crashSink) MarkCheckpoint() (int, error) {
	seg, err := s.SegmentTruncator.MarkCheckpoint()
	if err == nil {
		s.afterRotation()
	}
	return seg, err
}

// crashRig is one store under crash injection: the model of every
// acknowledged write, and the hooks a case arms on the store's seams.
type crashRig struct {
	t     *testing.T
	c     *Column
	opts  Options
	model brute
	fresh int64 // next never-seen value to insert
	del   int   // next base value to delete
	base  []int64

	// Hooks, run while armed: before the snapshot write (an error fails
	// it), after it (the rename done), and after the sink's rotation.
	armed          bool
	beforeSnapshot func() error
	afterSnapshot  func()
	afterRotation  func()

	inserted, deleted []int64
	atCrash           brute  // the model when crash copied the store
	image             string // the copy
}

// newCrashRig opens a store over 4 Ki unique values with logged writes
// and no structural work of its own, and installs the seam hooks for the
// rest of the test. source selects custom-source shards.
func newCrashRig(t *testing.T, source bool) *crashRig {
	d := workload.NewUniqueUniform(1<<12, 37)
	r := &crashRig{t: t, base: d.Values, fresh: 2 * d.Domain, model: append(brute(nil), d.Values...)}
	r.opts = testOptions(d.Values)
	r.opts.LogWrites = true
	r.opts.CheckpointEvery = 1 << 30
	r.opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}
	if source {
		r.opts.Shard.Source = func(values []int64) engine.AggregateSource {
			return hybrid.New(values, hybrid.Options{PartitionSize: 1 << 10})
		}
	}
	origWriter, origTruncator := snapshotWriter, truncator
	t.Cleanup(func() { snapshotWriter, truncator = origWriter, origTruncator })
	snapshotWriter = func(dir string, img shard.Image, sync bool) error {
		if r.armed && r.beforeSnapshot != nil {
			if err := r.beforeSnapshot(); err != nil {
				return err
			}
		}
		err := origWriter(dir, img, sync)
		if err == nil && r.armed && r.afterSnapshot != nil {
			r.afterSnapshot()
		}
		return err
	}
	truncator = func(s *wal.FileSink) wal.SegmentTruncator {
		return crashSink{origTruncator(s), func() {
			if r.armed && r.afterRotation != nil {
				r.afterRotation()
			}
		}}
	}
	c, err := Open(t.TempDir(), r.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r.c = c
	return r
}

// write routes n inserts of fresh values and n deletes of base values,
// all acknowledged, and books them in the model.
func (r *crashRig) write(n int) {
	r.t.Helper()
	for range n {
		if err := r.c.Insert(qctx, r.fresh); err != nil {
			r.t.Fatal(err)
		}
		r.inserted = append(r.inserted, r.fresh)
		r.model = append(r.model, r.fresh)
		r.fresh++

		v := r.base[r.del]
		r.del++
		if ok, err := r.c.DeleteValue(qctx, v); err != nil || !ok {
			r.t.Fatalf("DeleteValue(%d) = %v, %v", v, ok, err)
		}
		r.deleted = append(r.deleted, v)
		i := slices.Index(r.model, v)
		r.model = slices.Delete(r.model, i, i+1)
	}
}

// crash copies the store directory as it stands: the files a crash at
// this instant leaves behind. The model is what must come back.
func (r *crashRig) crash() {
	r.t.Helper()
	r.image = filepath.Join(r.t.TempDir(), "image")
	if err := os.CopyFS(r.image, os.DirFS(r.c.Dir())); err != nil {
		r.t.Fatal(err)
	}
	r.atCrash = slices.Clone(r.model)
}

// restart reopens the crash image and carries on with it as the store
// the rig writes to: the process came back up.
func (r *crashRig) restart() { r.c = r.reopen() }

// reopen opens the crash image and checks it against the model at the
// crash: answers on a grid of ranges, every acknowledged write present
// exactly once, the structural invariants, and no checkpoint taken by
// the Open itself.
func (r *crashRig) reopen() *Column {
	r.t.Helper()
	re, err := Open(r.image, r.opts)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { re.Close() })
	if !re.Recovered() {
		r.t.Fatal("reopen did not recover the store")
	}
	if n := re.Ingestor().Stats().Checkpoints; n != 0 {
		r.t.Fatalf("reopening took %d checkpoints, want 0: the snapshot just read is the checkpoint", n)
	}
	if err := re.Column().Validate(); err != nil {
		r.t.Fatal(err)
	}
	want := r.atCrash
	lost, twice := 0, 0
	for _, v := range r.inserted {
		switch n, _, _ := re.Count(qctx, v, v+1); {
		case n < want.count(v, v+1):
			lost++
		case n > want.count(v, v+1):
			twice++
		}
	}
	for _, v := range r.deleted {
		switch n, _, _ := re.Count(qctx, v, v+1); {
		case n > want.count(v, v+1):
			lost++
		case n < want.count(v, v+1):
			twice++
		}
	}
	if lost > 0 || twice > 0 {
		r.t.Fatalf("of %d acknowledged writes, %d lost and %d applied twice", len(r.inserted)+len(r.deleted), lost, twice)
	}
	if got := re.Column().Rows(); got != len(want) {
		r.t.Fatalf("recovered %d rows, want %d", got, len(want))
	}
	assertAgreesWithScan(r.t, re, want, r.fresh+1)
	return re
}

// TestCheckpointCrashPoints stops a checkpoint at each of its steps —
// through the two seams the store owns, the snapshot writer and the WAL
// sink — while writers route writes, and reopens what a crash there
// leaves on disk. Every acknowledged write must come back exactly once,
// for a cracked column and a custom-source one.
func TestCheckpointCrashPoints(t *testing.T) {
	errInjected := errors.New("injected snapshot failure")
	cases := []struct {
		name string
		run  func(r *crashRig)
	}{
		// Writes routed while the snapshot is written carry epochs above
		// its watermark; their records must outlive the release.
		{"writes during the snapshot write", func(r *crashRig) {
			r.write(5)
			r.beforeSnapshot = func() error { r.write(3); return nil }
			r.checkpoint(true)
			r.crash()
		}},
		// The new snapshot is in place, the segments it supersedes are
		// not released yet: its writes must not replay on top of it.
		{"crash after the rename, before the release", func(r *crashRig) {
			r.write(100)
			r.afterSnapshot = r.crash
			r.checkpoint(true)
		}},
		// The sink has rotated, the epoch cut has not happened: the old
		// snapshot and every segment stand.
		{"crash after the rotation, before the cut", func(r *crashRig) {
			r.write(20)
			r.afterRotation = func() { r.write(5); r.crash() }
			r.checkpoint(true)
		}},
		// A reopened store keeps the snapshot it read and releases
		// nothing: the tail it replayed stays in the log, unlogged a
		// second time, next to the writes of the new incarnation. A
		// crash before its first checkpoint replays both, each once.
		{"crash after a reopen, before its first checkpoint", func(r *crashRig) {
			r.write(20)
			r.crash()
			r.restart()
			r.write(20)
			r.crash()
		}},
		// Each reopen adds an incarnation whose log restarts at LSN 1;
		// every one of them replays once.
		{"two such reopens in a row", func(r *crashRig) {
			r.write(10)
			r.crash()
			r.restart()
			r.write(10)
			r.crash()
			r.restart()
			r.write(10)
			r.crash()
		}},
		// The snapshot write fails: the checkpoint fails, nothing is
		// released, and the writes around it survive a later crash.
		{"failed snapshot write", func(r *crashRig) {
			r.write(20)
			r.beforeSnapshot = func() error { r.write(5); return errInjected }
			r.checkpoint(false)
			r.armed = false
			r.write(5)
			r.crash()
		}},
	}
	for _, col := range []struct {
		name   string
		source bool
	}{{"crack", false}, {"source", true}} {
		for _, tc := range cases {
			t.Run(col.name+"/"+tc.name, func(t *testing.T) {
				r := newCrashRig(t, col.source)
				r.armed = true
				tc.run(r)
				r.armed = false
				r.reopen()
			})
		}
	}
}

// checkpoint runs one checkpoint and checks that it reports ok.
func (r *crashRig) checkpoint(ok bool) {
	r.t.Helper()
	if got := r.c.Checkpoint(); got != ok {
		r.t.Fatalf("Checkpoint() = %v, want %v", got, ok)
	}
}

// TestFailedDirSyncFailsCheckpoint: once the rename is the commit, a
// directory fsync that fails leaves the rename's durability unknown, so
// the checkpoint must fail and keep every segment the old snapshot
// needs.
func TestFailedDirSyncFailsCheckpoint(t *testing.T) {
	d := workload.NewUniqueUniform(1<<10, 41)
	opts := testOptions(d.Values)
	opts.NoSync = false // the directory is synced only when syncing at all
	opts.LogWrites = true
	opts.CheckpointEvery = 1 << 30
	opts.Ingest = ingest.Options{ApplyThreshold: 1 << 30, MinShardRows: 1 << 30}
	c, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range int64(50) {
		if err := c.Insert(qctx, d.Domain+i); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.sink.Segments()
	if err != nil {
		t.Fatal(err)
	}

	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(string) error { return errors.New("injected directory fsync failure") }
	if c.Checkpoint() {
		t.Fatal("checkpoint succeeded although the directory fsync failed")
	}
	after, err := c.sink.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range before {
		if !slices.Contains(after, seg) {
			t.Fatalf("segment %d released by a failed checkpoint (before %v, after %v)", seg, before, after)
		}
	}
	if got := c.Ingestor().Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints = %d, want 1 (the initial one)", got)
	}

	syncDir = orig
	if !c.Checkpoint() {
		t.Fatal("checkpoint failed with the directory fsync restored")
	}
}
