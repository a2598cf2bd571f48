package wal_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

// TestRotationPreallocFailureStopsLog: a segment reservation that fails
// at rotation (a full disk) fails the write that needed the new segment,
// which writes no byte; the segments before it stay readable, and the
// coordinator over the log refuses every later write (fail-stop).
func TestRotationPreallocFailureStopsLog(t *testing.T) {
	// The sink's first segment and the first rotation reserve theirs;
	// the second rotation finds the disk full.
	reserved := 0
	wal.SetPreallocate(t, func(f *os.File, size int64) error {
		if reserved++; reserved > 2 {
			return syscall.ENOSPC
		}
		return f.Truncate(size)
	})
	rotationFailureStopsLog(t, true, syscall.ENOSPC)
}

// TestRotationSyncDirFailureStopsLog: a directory fsync that fails at
// rotation — the new segment's name may not survive a power failure —
// fails the write that needed the new segment before any write is
// acknowledged into it: the new file is removed, the outgoing segment
// stays current, and the coordinator over the log refuses every later
// write (fail-stop).
func TestRotationSyncDirFailureStopsLog(t *testing.T) {
	// The sink's first segment and the first rotation sync the
	// directory; the second rotation's sync fails.
	errDirSync := errors.New("directory fsync failed")
	synced := 0
	wal.SetSyncDir(t, func(string) error {
		if synced++; synced > 2 {
			return errDirSync
		}
		return nil
	})
	rotationFailureStopsLog(t, false, errDirSync)
}

// rotationFailureStopsLog drives a coordinator logging into a sink of
// 512-byte segments until a write fails with wantErr, which must happen
// at the second rotation, and checks that the log stopped cleanly there.
func rotationFailureStopsLog(t *testing.T, noSync bool, wantErr error) {
	dir := t.TempDir()
	sink, err := wal.NewFileSink(dir, wal.SinkOptions{SegmentBytes: 512, NoSync: noSync})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := workload.NewUniqueUniform(1<<10, 3)
	col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5})
	g := ingest.New(col, ingest.Options{
		Log: sink, SyncEvery: 1 << 20,
		ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
	})
	var acked []int64
	for i := range 200 {
		v := d.Domain + int64(i)
		if err = g.Insert(ctx, v); err != nil {
			break
		}
		acked = append(acked, v)
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("Insert after %d acknowledged = %v, want %v", len(acked), err, wantErr)
	}
	if segs, err := sink.Segments(); err != nil || !slices.Equal(segs, []int{1, 2}) {
		t.Fatalf("segments = %v, %v; want 1 and 2, and no trace of the failed third", segs, err)
	}
	readBack := func() {
		t.Helper()
		raw, err := wal.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := wal.Recover(raw)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, tw := range cat.Writes {
			got = append(got, tw.Value)
		}
		if !slices.Equal(got, acked) {
			t.Fatalf("read back %v, want the %d acknowledged writes %v", got, len(acked), acked)
		}
	}
	readBack()

	// Fail-stop: no later write routes.
	rows := col.Rows()
	if err := g.Insert(ctx, -1); !errors.Is(err, wantErr) {
		t.Errorf("Insert after the failure = %v, want the log's error", err)
	}
	if _, err := g.DeleteValue(ctx, 0); !errors.Is(err, wantErr) {
		t.Errorf("DeleteValue after the failure = %v, want the log's error", err)
	}
	if _, err := g.Apply(ctx, []ingest.Op{{Value: -2}}); !errors.Is(err, wantErr) {
		t.Errorf("Apply after the failure = %v, want the log's error", err)
	}
	if got := col.Rows(); got != rows {
		t.Errorf("Rows = %d after refused writes, want %d", got, rows)
	}

	// Closed, both segments hold whole frames only: each is trimmed to
	// the acknowledged records' frames.
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	readBack()
	raw, _ := wal.ReadDir(dir)
	var size int64
	for _, seg := range []string{"wal-00000001.seg", "wal-00000002.seg"} {
		fi, err := os.Stat(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if want := int64(wal.FrameBytes(raw)); size != want {
		t.Fatalf("segments hold %d bytes, want %d: the failed write left bytes behind", size, want)
	}
}
