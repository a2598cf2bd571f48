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
	dir := t.TempDir()
	sink, err := wal.NewFileSink(dir, wal.SinkOptions{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// The first rotation reserves its segment; the second finds the disk full.
	reserved := 0
	wal.SetPreallocate(t, func(f *os.File, size int64) error {
		if reserved++; reserved > 1 {
			return syscall.ENOSPC
		}
		return f.Truncate(size)
	})
	ctx := context.Background()
	d := workload.NewUniqueUniform(1<<10, 3)
	col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5})
	g := ingest.New(col, ingest.Options{
		Log: wal.New(sink), SyncEvery: 1 << 20,
		ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
	})
	var acked []int64
	for i := range 100 {
		v := d.Domain + int64(i)
		if err = g.Insert(ctx, v); err != nil {
			break
		}
		acked = append(acked, v)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Insert after %d acknowledged = %v, want the reservation's ENOSPC", len(acked), err)
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
		for _, tw := range cat.TailWrites["sharded"] {
			got = append(got, tw.Value)
		}
		if !slices.Equal(got, acked) {
			t.Fatalf("read back %v, want the %d acknowledged writes %v", got, len(acked), acked)
		}
	}
	readBack()

	// Fail-stop: no later write routes.
	rows := col.Rows()
	if err := g.Insert(ctx, -1); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("Insert after the failure = %v, want the log's error", err)
	}
	if _, err := g.DeleteValue(ctx, 0); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("DeleteValue after the failure = %v, want the log's error", err)
	}
	if _, err := g.Apply(ctx, []ingest.Op{{Value: -2}}); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("Apply after the failure = %v, want the log's error", err)
	}
	if got := col.Rows(); got != rows {
		t.Errorf("Rows = %d after refused writes, want %d", got, rows)
	}

	// Closed, both segments hold whole frames only: each is trimmed to
	// the acknowledged records' payloads plus an 8-byte header apiece.
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
	if want := int64(len(raw) + 8*len(acked)); size != want {
		t.Fatalf("segments hold %d bytes, want %d: the failed write left bytes behind", size, want)
	}
}
