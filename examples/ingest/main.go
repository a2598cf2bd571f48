// The concurrent write path: routed updates, group-applied epoch
// merges, and online shard rebalancing — all through the one
// adaptix.Index handle.
//
// The paper's §4.2 argues adaptive indexes can absorb high update
// rates through differential files while background structural work,
// which logs nothing, merges them. This example makes that concrete: a
// skewed insert storm (8 writers pouring into one narrow value band
// while 4 readers keep querying a quiet range whose answer must never
// waver) runs against the epoch write path (internal/epoch), where a
// group-apply merge seals only the current epoch and writers roll over
// without parking. The per-insert latency histogram is the point: no insert
// ever waits for a shard rebuild. A reader that sees a wrong sum makes
// the example exit non-zero. See examples/recovery for the durable
// lifecycle of the same handle.
//
// Run: go run ./examples/ingest
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"adaptix"
)

const (
	n       = 1 << 20
	writers = 8
	readers = 4
	perW    = 40000
)

var ctx = context.Background()

// stormResult is one run's outcome: per-insert latencies and the
// index's structural counters.
type stormResult struct {
	elapsed    time.Duration
	lats       []time.Duration
	stats      adaptix.Stats
	shards     int
	violations int
	ix         *adaptix.Index
}

// runStorm pours the skewed insert storm into a fresh index while
// readers assert the quiet range, measuring every insert.
func runStorm(data *adaptix.Dataset) stormResult {
	ix, err := adaptix.New(data.Values,
		adaptix.WithShards(4), adaptix.WithSeed(5),
		adaptix.WithIngestOptions(adaptix.IngestOptions{
			ApplyThreshold: 4096, MinShardRows: 1 << 14, SplitFactor: 1.5,
		}),
	)
	if err != nil {
		panic(err)
	}

	// The quiet range is never written: its sum is an invariant the
	// readers assert on every pass, even mid-rebalance.
	qlo, qhi := int64(n/2), int64(n/2+4096)
	want, err := ix.Sum(ctx, qlo, qhi)
	if err != nil {
		panic(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	violations := 0
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s, err := ix.Sum(ctx, qlo, qhi); err != nil || s.Value != want.Value {
					mu.Lock()
					violations++
					mu.Unlock()
				}
			}
		}()
	}

	start := time.Now()
	latCh := make(chan []time.Duration, writers)
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			lats := make([]time.Duration, 0, perW)
			for i := 0; i < perW; i++ {
				// Everything lands in [0, 1024): one shard takes it all.
				t0 := time.Now()
				if err := ix.Insert(ctx, int64((w*perW+i)%1024)); err != nil {
					panic(err)
				}
				lats = append(lats, time.Since(t0))
			}
			latCh <- lats
		}(w)
	}
	ww.Wait()
	elapsed := time.Since(start)
	close(latCh)
	close(stop)
	wg.Wait()

	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return stormResult{
		elapsed: elapsed, lats: all, stats: ix.Stats(),
		shards: ix.NumShards(), violations: violations,
		ix: ix,
	}
}

func pct(lats []time.Duration, p float64) time.Duration {
	return lats[int(p*float64(len(lats)-1))]
}

// histogram prints a coarse log-scale latency histogram.
func histogram(lats []time.Duration) {
	buckets := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, time.Second,
	}
	labels := []string{"<1µs", "<10µs", "<100µs", "<1ms", "<10ms", ">=10ms"}
	counts := make([]int, len(buckets))
	for _, l := range lats {
		for i, b := range buckets {
			if l < b || i == len(buckets)-1 {
				counts[i]++
				break
			}
		}
	}
	for i, c := range counts {
		bar := ""
		for j := 0; j < 40*c/len(lats); j++ {
			bar += "#"
		}
		fmt.Printf("    %-7s %8d %s\n", labels[i], c, bar)
	}
}

func report(name string, r stormResult) {
	fmt.Printf("-- %s --\n", name)
	fmt.Printf("  storm:  %v for %d inserts (%.0f ins/s)\n",
		r.elapsed.Round(time.Millisecond), writers*perW, float64(writers*perW)/r.elapsed.Seconds())
	fmt.Printf("  stalls: p50=%v p99=%v max=%v\n",
		pct(r.lats, 0.50), pct(r.lats, 0.99), pct(r.lats, 1.0))
	histogram(r.lats)
	fmt.Printf("  after:  %d shards | %d group applies (%d epoch seals), %d splits, %d merges | reader violations: %d\n",
		r.shards, r.stats.Ingest.Applied, r.stats.Ingest.EpochSeals,
		r.stats.Ingest.Splits, r.stats.Ingest.Merges, r.violations)
}

func main() {
	data := adaptix.NewUniqueDataset(n, 42)
	fmt.Printf("== ingest: skewed insert storm, %d writers x %d inserts, %d readers, %d rows ==\n",
		writers, perW, readers, n)

	// A merge seals only the current epoch; writers roll over, so the
	// stall tail is an epoch append, not a rebuild.
	epoch := runStorm(data)
	defer epoch.ix.Close()
	report("epoch chains", epoch)

	for _, s := range epoch.stats.Shards {
		fmt.Printf("  shard %d: [%d, %d) rows=%-8d pieces=%-5d pending=%d epochs=%d\n",
			s.Shard, s.LoVal, s.HiVal, s.Rows, s.Pieces, s.PendingInserts+s.PendingDeletes, s.Epochs)
	}
	fmt.Println("\n(seals, applies and splits change structure only and log nothing;")
	fmt.Println(" examples/recovery survives a crash from a checkpoint snapshot)")
	if epoch.violations > 0 {
		fmt.Printf("WRONG: readers saw %d answers that differ from the quiet range's sum\n", epoch.violations)
		os.Exit(1)
	}
}
