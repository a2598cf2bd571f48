// Crash recovery: refinement knowledge survives process death.
//
// The paper's §4.2 observes that adaptive-index structure is
// re-creatable from the base data, and that keeping it preserves "the
// side effects of earlier queries". A checkpoint here captures that
// structure whole: the snapshot holds every shard's array in piece
// order with its table of contents. This example runs the full durable
// lifecycle through the unified handle: adaptix.Open a store, crack it
// under a query load, checkpoint, then simulate a crash (the store is
// abandoned without Close, with a torn record appended to the log
// tail). Reopening adopts the snapshot — the shard map and every
// checkpointed piece, with no partition pass — so the first query after
// the crash pays steady-state cost; a cold store built from the same
// data pays the full cold-start partition passes instead.
//
// Run: go run ./examples/recovery
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"adaptix"
)

var ctx = context.Background()

func main() {
	const n = 1 << 20
	dir, err := os.MkdirTemp("", "adaptix-recovery-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	data := adaptix.NewUniqueDataset(n, 42)
	shape := []adaptix.Option{
		adaptix.WithShards(4), adaptix.WithSeed(5),
	}
	ix, err := adaptix.Open(dir, append(shape, adaptix.WithValues(data.Values))...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("store created in %s\n", dir)

	// Crack under load: 400 range queries refine every shard.
	queries := adaptix.UniformQueries(adaptix.CountQuery, int64(n), 0.01, 7, 400)
	for _, q := range queries {
		if _, err := ix.Count(ctx, q.Lo, q.Hi); err != nil {
			panic(err)
		}
	}
	fmt.Printf("after load:   %6d cracks, %4d boundaries, %d shards\n",
		cracks(ix), boundaries(ix), ix.NumShards())

	// Durable point, then crash: no Close, and the log tail is torn
	// the way a power cut mid-write would leave it.
	ix.Checkpoint()
	warm := queryCost(ix, 123456, 133456)
	tearTail(dir)
	fmt.Printf("checkpoint taken; process \"dies\" with a torn log tail\n")

	// Reopen: every shard adopts its checkpointed array and pieces, and
	// the logged tail past the checkpoint replays on top.
	//
	// The abandoned store above is never touched again — a store
	// directory has one owner at a time, and this in-process crash
	// simulation honours that by going fully idle (no writes, no
	// checkpoints) before the reopen; a real crash releases the
	// directory outright.
	re, err := adaptix.Open(dir, shape...)
	if err != nil {
		panic(err)
	}
	defer re.Close()
	fmt.Printf("after reopen: %6s cracks, %4d boundaries, %d shards (recovered=%v)\n",
		"-", boundaries(re), re.NumShards(), re.Recovered())
	bd := re.RecoveryStats()
	fmt.Printf("recovery breakdown: checkpoint-load=%v wal-scan=%v restore+tail=%v\n",
		bd.CheckpointLoad, bd.WALScan, bd.Replay)

	recovered := queryCost(re, 123456, 133456)
	cold, err := adaptix.Open(filepath.Join(dir, "cold"),
		append(shape, adaptix.WithValues(data.Values))...)
	if err != nil {
		panic(err)
	}
	defer cold.Close()
	coldCost := queryCost(cold, 123456, 133456)

	fmt.Printf("\nfirst-query refinement time for Count[123456,133456):\n")
	fmt.Printf("  warm pre-crash store:  %v\n", warm)
	fmt.Printf("  recovered store:       %v\n", recovered)
	fmt.Printf("  cold store (no WAL):   %v  (full partition passes)\n", coldCost)
	if recovered < coldCost {
		fmt.Println("refinement knowledge survived the crash")
	}
}

// cracks sums the physical crack actions across shards.
func cracks(ix *adaptix.Index) int64 {
	var t int64
	for _, s := range ix.Stats().Shards {
		t += s.Cracks
	}
	return t
}

// boundaries counts crack boundaries across shards.
func boundaries(ix *adaptix.Index) int {
	t := 0
	for _, set := range ix.CrackBoundaries() {
		t += len(set)
	}
	return t
}

// queryCost runs one count query and returns the time it spent
// physically refining the index (a cold shard pays a full partition
// pass here; a warm or recovered one only trims small pieces).
func queryCost(ix *adaptix.Index, lo, hi int64) time.Duration {
	res, err := ix.Count(ctx, lo, hi)
	if err != nil {
		panic(err)
	}
	return res.Refine
}

// tearTail appends a partial garbage frame to the newest log segment.
func tearTail(dir string) {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		return
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xba, 0xad})
	f.Close()
}
