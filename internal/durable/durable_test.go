package durable

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// qctx is the uncancellable context the tests drive queries with.
var qctx = context.Background()

// testOptions disables fsync (the tests simulate crashes by mangling
// files directly) and pins deterministic shard/index settings.
func testOptions(values []int64) Options {
	return Options{
		Values: values,
		Shard: shard.Options{
			Shards: 4, Seed: 9,
			Index: crackindex.Options{Latching: crackindex.LatchPiece},
		},
		NoSync: true,
	}
}

// brute is a scan baseline over a value multiset.
type brute []int64

func (b brute) count(lo, hi int64) int64 {
	var n int64
	for _, v := range b {
		if v >= lo && v < hi {
			n++
		}
	}
	return n
}

func (b brute) sum(lo, hi int64) int64 {
	var s int64
	for _, v := range b {
		if v >= lo && v < hi {
			s += v
		}
	}
	return s
}

// assertAgreesWithScan compares the store's answers against the scan
// baseline across a deterministic range sweep.
func assertAgreesWithScan(t *testing.T, c *Column, base brute, domain int64) {
	t.Helper()
	r := workload.NewRNG(77)
	for i := 0; i < 200; i++ {
		lo := r.Int64n(domain)
		hi := lo + 1 + r.Int64n(domain-lo)
		if got, _, _ := c.Count(qctx, lo, hi); got != base.count(lo, hi) {
			t.Fatalf("Count[%d,%d) = %d, scan baseline %d", lo, hi, got, base.count(lo, hi))
		}
		if got, _, _ := c.Sum(qctx, lo, hi); got != base.sum(lo, hi) {
			t.Fatalf("Sum[%d,%d) = %d, scan baseline %d", lo, hi, got, base.sum(lo, hi))
		}
	}
}

func totalCracks(c *Column) int64 {
	var n int64
	for _, s := range c.Column().Snapshot() {
		n += s.Cracks
	}
	return n
}

func TestOpenCreateReopenCleanClose(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<13, 3)
	c, err := Open(dir, testOptions(d.Values))
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovered() {
		t.Fatal("fresh store reports Recovered")
	}
	r := workload.NewRNG(5)
	for i := 0; i < 100; i++ {
		lo := r.Int64n(d.Domain)
		c.Count(qctx, lo, lo+1+r.Int64n(d.Domain-lo))
	}
	warmBounds := c.Column().CrackBoundaries()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}

	re, err := Open(dir, testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovered() {
		t.Fatal("reopen did not recover")
	}
	// Clean close loses no refinement and adds none: the reopened store
	// has exactly the warm store's boundaries. (Compared before any query
	// of the reopened store refines it further.)
	reBounds := re.Column().CrackBoundaries()
	var warmN, reN int
	for _, s := range warmBounds {
		warmN += len(s)
	}
	for _, s := range reBounds {
		reN += len(s)
	}
	if reN != warmN {
		t.Fatalf("reopened store has %d crack boundaries, warm store had %d", reN, warmN)
	}
	assertAgreesWithScan(t, re, brute(d.Values), d.Domain)
}

// TestReopenKeepsStructureExactly: with no query at all, Close/Open
// cycles neither lose nor add a boundary. After every reopen each
// shard's boundary table — value, position and prefix sum of every
// boundary, i.e. its BoundaryPositions — is the one the closing
// checkpoint wrote.
func TestReopenKeepsStructureExactly(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<20, 43)
	c, err := Open(dir, testOptions(d.Values))
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for cycle := range 4 {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		saved, ok, err := readSnapshot(dir)
		if err != nil || !ok {
			t.Fatalf("cycle %d: snapshot: %v %v", cycle, ok, err)
		}
		if c, err = Open(dir, testOptions(nil)); err != nil {
			t.Fatal(err)
		}
		got := c.Column().ImageAt(math.MaxInt64)
		if !slices.Equal(got.Bounds, saved.Bounds) {
			t.Fatalf("cycle %d: reopened cuts %v, checkpointed %v", cycle, got.Bounds, saved.Bounds)
		}
		n := 0
		for i, sh := range got.Shards {
			if !slices.Equal(sh.Seeds, saved.Shards[i].Seeds) {
				t.Fatalf("cycle %d, shard %d: reopened with %d boundaries, checkpointed %d (or at other positions)",
					cycle, i, len(sh.Seeds), len(saved.Shards[i].Seeds))
			}
			n += len(sh.Seeds)
		}
		if first < 0 {
			first = n
		}
		if n != first {
			t.Fatalf("cycle %d: %d boundaries, %d after the first reopen", cycle, n, first)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<13, 7)
	opts := testOptions(d.Values)
	// Keep phase 2 structurally quiet so the test controls exactly
	// what is durable: no auto-checkpoints, no rebalancer splits.
	opts.CheckpointEvery = 1 << 30
	opts.Ingest = ingest.Options{ApplyThreshold: 64, MinShardRows: 1 << 30}

	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 — crack under load: queries refine, writes route and
	// group-apply.
	r := workload.NewRNG(13)
	for i := 0; i < 300; i++ {
		lo := r.Int64n(d.Domain)
		c.Count(qctx, lo, lo+1+r.Int64n(d.Domain-lo))
		if i%2 == 0 {
			if err := c.Insert(qctx, r.Int64n(d.Domain)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Ingestor().Maintain()
	// Drain every differential so phase 2's writes cannot cross the
	// group-apply threshold and trigger structural work mid-"crash".
	for i := c.Column().NumShards() - 1; i >= 0; i-- {
		c.Column().ApplyShard(i)
	}

	// The probe query earns its boundaries now, pre-checkpoint; its
	// warm repeat measures steady-state crack cost.
	qlo, qhi := d.Domain/4, d.Domain/4+d.Domain/8
	c.Count(qctx, qlo, qhi)
	warmBefore := totalCracks(c)
	warmAnswer, _, _ := c.Count(qctx, qlo, qhi)
	warmCost := totalCracks(c) - warmBefore

	// Durable point: everything above survives the crash.
	if !c.Checkpoint() {
		t.Fatal("checkpoint failed")
	}
	expected := append(brute(nil), c.Column().Values()...)
	sort.Slice(expected, func(i, j int) bool { return expected[i] < expected[j] })

	// Phase 2 — lost tail: writes after the last checkpoint, then the
	// process dies mid-record (garbage at the log tail), never Close.
	for i := 0; i < 200; i++ {
		if err := c.Insert(qctx, r.Int64n(d.Domain)); err != nil {
			t.Fatal(err)
		}
	}
	tearLogTail(t, dir)

	// Reopen from disk.
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovered() {
		t.Fatal("reopen did not recover")
	}

	// (a) Query answers identical to the scan baseline over the
	// checkpointed contents.
	if got := re.Column().Rows(); got != len(expected) {
		t.Fatalf("recovered %d rows, checkpoint had %d", got, len(expected))
	}
	assertAgreesWithScan(t, re, expected, d.Domain)

	// (b) The first post-reopen query performs no more cracks than the
	// warm pre-crash query: refinement knowledge survived.
	reBefore := totalCracks(re)
	reAnswer, _, _ := re.Count(qctx, qlo, qhi)
	reCost := totalCracks(re) - reBefore
	if reAnswer != expected.count(qlo, qhi) {
		t.Fatalf("probe Count = %d, want %d", reAnswer, expected.count(qlo, qhi))
	}
	_ = warmAnswer // answers differ across the durable point (phase-1 writes only)
	if reCost > warmCost {
		t.Fatalf("first post-reopen query cracked %d times, warm pre-crash query %d", reCost, warmCost)
	}
}

// tearLogTail appends a partial garbage frame to the newest WAL
// segment, simulating a crash mid-write.
func tearLogTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear: %v %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x99, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverySurvivesDeletedValues(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<12, 11)
	c, err := Open(dir, testOptions(d.Values))
	if err != nil {
		t.Fatal(err)
	}
	deleted := map[int64]bool{}
	r := workload.NewRNG(17)
	for i := 0; i < 100; i++ {
		v := r.Int64n(d.Domain)
		ok, err := c.DeleteValue(qctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			deleted[v] = true
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var expected brute
	for _, v := range d.Values {
		if !deleted[v] {
			expected = append(expected, v)
		}
	}
	re, err := Open(dir, testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertAgreesWithScan(t, re, expected, d.Domain)
}

func TestOpenWALOnlyDirectoryKeepsCallerValues(t *testing.T) {
	// A directory with log segments but no base.snap (a crash before the
	// first snapshot's rename, or a lost snapshot). Reopening with the
	// same Values must not silently produce an empty column.
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<12, 23)
	c, err := Open(dir, testOptions(d.Values))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "base.snap")); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, testOptions(d.Values))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() {
		t.Fatal("store without a snapshot reports Recovered")
	}
	if got := re.Column().Rows(); got != len(d.Values) {
		t.Fatalf("rows = %d, want %d (caller values discarded)", got, len(d.Values))
	}
	assertAgreesWithScan(t, re, brute(d.Values), d.Domain)
}

func TestCorruptSnapshotReported(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewUniqueUniform(1<<10, 19)
	c, err := Open(dir, testOptions(d.Values))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "base.snap"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "base.snap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions(nil)); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}
